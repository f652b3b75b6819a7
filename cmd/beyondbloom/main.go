// Command beyondbloom regenerates the experiment suite of this
// repository's tutorial reproduction (see DESIGN.md and EXPERIMENTS.md).
//
// Usage:
//
//	beyondbloom list                 list experiments
//	beyondbloom exp E7               run one experiment
//	beyondbloom exp all              run every experiment
//	beyondbloom exp E7 -scale 0.2    run at reduced workload scale
//	beyondbloom exp E19 -json        the same run as one JSON document
//	beyondbloom exp E2 -cpuprofile cpu.out -memprofile mem.out
//	                                 profile a run with runtime/pprof
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"beyondbloom/internal/experiments"
	"beyondbloom/internal/metrics"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	switch os.Args[1] {
	case "list":
		for _, e := range experiments.All() {
			fmt.Printf("%-5s %s\n", e.ID, e.Title)
		}
	case "exp":
		fs := flag.NewFlagSet("exp", flag.ExitOnError)
		scale := fs.Float64("scale", 1.0, "workload scale factor")
		asJSON := fs.Bool("json", false, "write each experiment as one JSON document instead of text tables")
		cpuprofile := fs.String("cpuprofile", "", "write a CPU profile to `file`")
		memprofile := fs.String("memprofile", "", "write an allocation profile to `file` on exit")
		if len(os.Args) < 3 {
			usage()
			os.Exit(2)
		}
		id := os.Args[2]
		fs.Parse(os.Args[3:])
		cfg := experiments.Config{Scale: *scale}
		stop, err := startProfiles(*cpuprofile, *memprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "error: %v\n", err)
			os.Exit(1)
		}
		code := runExp(id, cfg, *asJSON)
		// Flush profiles before exiting — os.Exit skips defers, so the
		// teardown is explicit and runs even when experiments failed
		// (a failing run is exactly the one worth profiling).
		stop()
		if code != 0 {
			os.Exit(code)
		}
	default:
		usage()
		os.Exit(2)
	}
}

// runExp runs one experiment (or all of them) and returns the process
// exit code instead of calling os.Exit, so profile teardown still runs.
func runExp(id string, cfg experiments.Config, asJSON bool) int {
	if id == "all" {
		// A panicking experiment must not take down the rest of the
		// suite: report it, keep going, and exit non-zero at the end.
		var failed []string
		for _, e := range experiments.All() {
			if err := run(os.Stdout, e, cfg, asJSON); err != nil {
				failed = append(failed, e.ID)
			}
		}
		if len(failed) > 0 {
			fmt.Fprintf(os.Stderr, "error: %d experiment(s) failed: %v\n", len(failed), failed)
			return 1
		}
		return 0
	}
	e, ok := experiments.ByID(id)
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown experiment %q (try `beyondbloom list`)\n", id)
		return 1
	}
	if err := run(os.Stdout, e, cfg, asJSON); err != nil {
		return 1
	}
	return 0
}

// startProfiles begins CPU profiling and/or arranges a heap profile,
// returning a stop function that flushes whatever was requested. Empty
// paths disable the corresponding profile.
func startProfiles(cpuPath, memPath string) (stop func(), err error) {
	var cpuFile *os.File
	if cpuPath != "" {
		cpuFile, err = os.Create(cpuPath)
		if err != nil {
			return nil, fmt.Errorf("create cpu profile: %v", err)
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, fmt.Errorf("start cpu profile: %v", err)
		}
	}
	return func() {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			cpuFile.Close()
		}
		if memPath != "" {
			f, err := os.Create(memPath)
			if err != nil {
				fmt.Fprintf(os.Stderr, "error: create mem profile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // materialize the final live set
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "error: write mem profile: %v\n", err)
			}
		}
	}, nil
}

// run executes one experiment and writes its tables to w as text
// or as one JSON document. A mid-run panic and a failing gating
// acceptance check are both reported errors, in either rendering.
func run(w io.Writer, e experiments.Experiment, cfg experiments.Config, asJSON bool) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("experiment %s panicked: %v", e.ID, r)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "error: %v\n\n", err)
		}
	}()
	if !asJSON {
		fmt.Fprintf(w, "### %s — %s\n", e.ID, e.Title)
	}
	start := time.Now()
	tables := e.Run(cfg)
	if asJSON {
		if err := metrics.WriteJSON(w, e.ID, tables); err != nil {
			return err
		}
	} else {
		for _, t := range tables {
			t.Render(w)
			fmt.Fprintln(w)
		}
		fmt.Fprintf(w, "(%s completed in %v)\n\n", e.ID, time.Since(start).Round(time.Millisecond))
	}
	if failed := metrics.GatingFailures(tables); len(failed) > 0 {
		return fmt.Errorf("experiment %s failed acceptance: %v", e.ID, failed)
	}
	return nil
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  beyondbloom list
  beyondbloom exp <id|all> [-scale f] [-json] [-cpuprofile file] [-memprofile file]`)
}
