// Command bench is the repository's one benchmark: it builds
// ./cmd/filterd from the working tree, drives the real `filterd serve`
// child over loopback HTTP with four seeded workloads, verifies every
// answer, and (with -trace 1) replays the same request streams through
// nested shells of the layers' public functions to say which layer a
// microsecond goes to. BENCHMARK.json at the checkout root names the
// metrics, their units, directions and bounds; README.md here explains
// the method. It claims no gain: it is the yardstick.
//
//	go run -C bench . -workload kv_read -seed 7 -seconds 10 -trace 0
//	go run -C bench .                        # all workloads, both modes
//	go run -C bench . -smoke                 # everything, tiny, < 30 s
//	go run -C bench . -compare a.json b.json # apply the bounds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// metricValue is one reported number with its unit.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runRecord is one workload run in one mode: the object the last line
// of standard output carries, plus what identifies the run in a
// result file.
type runRecord struct {
	Workload  string                 `json:"workload,omitempty"`
	Seed      uint64                 `json:"seed,omitempty"`
	Trace     int                    `json:"trace,omitempty"`
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// meta records what a result was measured on and with.
type meta struct {
	Commit     string  `json:"commit"`
	GoVersion  string  `json:"go_version"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NumCPU     int     `json:"num_cpu"`
	Kernel     string  `json:"kernel"`
	StoreFS    string  `json:"store_fs"`
	Seed       uint64  `json:"seed"`
	Conns      int     `json:"conns"`
	WarmS      float64 `json:"warm_s"`
	MeasureS   float64 `json:"measure_s"`
	Smoke      bool    `json:"smoke"`
}

type resultFile struct {
	Meta meta        `json:"meta"`
	Runs []runRecord `json:"runs"`
}

func main() { os.Exit(run()) }

func run() int {
	var (
		workloadFlag = flag.String("workload", "", "run only this workload (default: all four)")
		seed         = flag.Uint64("seed", 1, "workload seed: equal seeds give equal requests")
		seconds      = flag.Int("seconds", 0, "measure phase in seconds (default: run_seconds of BENCHMARK.json)")
		trace        = flag.Int("trace", -1, "0: served run, end-to-end metrics; 1: served run with client spans plus the traced replay, per-layer metrics (default: both)")
		runs         = flag.Int("runs", 1, "repeat the selected runs this many times, on seeds seed, seed+1, ...")
		out          = flag.String("out", "", "result file (default: <workdir>/result.json)")
		workdir      = flag.String("workdir", "out", "directory for the result, span files and the scratch store directories; fsync time is this filesystem's")
		smoke        = flag.Bool("smoke", false, "all workloads with 1 s phases and small filters, still verifying every answer")
		compare      = flag.Bool("compare", false, "compare two result files: -compare a.json b.json")
	)
	flag.Parse()

	root, err := findRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	spec, err := loadSpec(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: bench -compare a.json b.json")
			return 2
		}
		return compareFiles(spec, flag.Arg(0), flag.Arg(1))
	}

	var selected []*workload
	for _, name := range spec.workloadNames() {
		w := workloadByName(name)
		if w == nil {
			fmt.Fprintf(os.Stderr, "bench: BENCHMARK.json names workload %q, which this program does not have\n", name)
			return 2
		}
		if *workloadFlag == "" || *workloadFlag == name {
			selected = append(selected, w)
		}
	}
	if len(selected) == 0 {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q (have %s)\n", *workloadFlag, strings.Join(spec.workloadNames(), ", "))
		return 2
	}
	modes := []int{0, 1}
	switch {
	case *trace == 0 || *trace == 1:
		modes = []int{*trace}
	case *trace != -1:
		fmt.Fprintln(os.Stderr, "bench: -trace is 0 or 1")
		return 2
	case *smoke:
		modes = []int{1} // one traced run per workload reports every metric
	}
	if *seconds == 0 {
		*seconds = spec.RunSeconds
	}
	p := params{seed: *seed, measure: time.Duration(*seconds) * time.Second, smoke: *smoke, conns: defaultConns()}
	// The warm-up is a fifth of the measure phase, at most 3 s.
	if p.warm = p.measure / 5; p.warm > 3*time.Second {
		p.warm = 3 * time.Second
	}
	if *smoke {
		p.warm, p.measure = time.Second, time.Second
	}
	if p.measure < time.Second {
		fmt.Fprintln(os.Stderr, "bench: -seconds must be at least 1")
		return 2
	}

	sb, err := newSandbox(*workdir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	defer sb.cleanup()
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigs
		sb.cleanup()
		os.Exit(130)
	}()

	e := &env{root: root, bin: filepath.Join(sb.dir, "filterd"), sb: sb, spec: spec, p: p}
	if err := buildFilterd(root, e.bin); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}

	result := resultFile{Meta: meta{
		Commit: gitCommit(root), GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		Kernel: kernelRelease(), StoreFS: fsName(sb.dir), Seed: *seed, Conns: p.conns,
		WarmS: p.warm.Seconds(), MeasureS: p.measure.Seconds(), Smoke: *smoke,
	}}
	fmt.Printf("bench: commit %s, %s, GOMAXPROCS %d of %d CPUs, kernel %s, stores on %s, %d closed-loop connections, warm-up %v, measure %v\n",
		result.Meta.Commit, result.Meta.GoVersion, result.Meta.GOMAXPROCS, result.Meta.NumCPU, result.Meta.Kernel,
		result.Meta.StoreFS, p.conns, p.warm, p.measure)

	ok := true
	var last runRecord
	for r := 0; r < *runs; r++ {
		e.p.seed = *seed + uint64(r)
		for _, w := range selected {
			for _, mode := range modes {
				rec, err := e.runOne(w, mode, *workdir)
				if err != nil {
					fmt.Fprintf(os.Stderr, "bench: %s (trace %d, seed %d): %v\n", w.name, mode, e.p.seed, err)
					return 1
				}
				ok = ok && rec.Correct
				result.Runs = append(result.Runs, *rec)
				last = *rec
			}
		}
	}
	if *out == "" {
		*out = filepath.Join(*workdir, "result.json")
	}
	raw, err := json.MarshalIndent(result, "", " ")
	if err == nil {
		err = os.WriteFile(*out, append(raw, '\n'), 0o644)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	if len(selected) == 1 && len(modes) == 1 && *runs == 1 {
		// The one-run form: the last line of standard output is the result.
		last.Workload, last.Seed, last.Trace = "", 0, 0
		line, _ := json.Marshal(last)
		fmt.Println(string(line))
	}
	if !ok {
		return 1
	}
	return 0
}

// runOne is one workload in one mode. Mode 0 is the served run with
// tracing off and yields the end-to-end metrics; mode 1 is the served
// run with client spans on plus the traced replay and yields the
// per-layer metrics and the span file.
func (e *env) runOne(w *workload, mode int, outDir string) (*runRecord, error) {
	fmt.Printf("== %s, seed %d, trace %d\n", w.name, e.p.seed, mode)
	m := newMetrics(e.spec)
	served, err := e.servedRun(w, m, mode == 1)
	if err != nil {
		return nil, err
	}
	rec := &runRecord{Workload: w.name, Seed: e.p.seed, Trace: mode,
		Attempted: served.attempted, Failed: served.failed, Metrics: map[string]metricValue{}}
	if served.detail != "" {
		fmt.Printf("  FAILED REQUEST OR WRONG ANSWER in the served run of %s: %s\n", w.name, served.detail)
	}
	list := e.spec.EndToEnd
	if mode == 1 {
		attempted, wrong, bufs, err := e.tracedReplay(w, m, served)
		if err != nil {
			return nil, err
		}
		rec.Attempted += attempted
		rec.Failed += wrong
		path := filepath.Join(outDir, "trace_"+w.name+".json")
		if err := writeTrace(path, w.name, e.p.seed, append(served.spans, bufs...)); err != nil {
			return nil, err
		}
		list = e.spec.PerLayer
		if e.p.smoke { // the smoke run prints everything it has
			list = append(append([]metricSpec(nil), e.spec.EndToEnd...), e.spec.PerLayer...)
		}
	}
	if m.err != nil {
		return nil, m.err
	}
	rec.Correct = rec.Failed == 0
	for _, ms := range list {
		v, set := m.values[ms.Name]
		if !set && mode == 0 {
			return nil, fmt.Errorf("end-to-end metric %s was not measured", ms.Name)
		}
		rec.Metrics[ms.Name] = metricValue{v, ms.Unit}
		if set {
			fmt.Printf("  %-40s %14s %s\n", ms.Name, fmtValue(v), ms.Unit)
		}
	}
	fmt.Printf("  %d requests attempted, %d failed or answered wrongly\n", rec.Attempted, rec.Failed)
	return rec, nil
}

func gitCommit(root string) string {
	cmd := exec.Command("git", "rev-parse", "--short", "HEAD")
	cmd.Dir = root
	if out, err := cmd.Output(); err == nil {
		return strings.TrimSpace(string(out))
	}
	return "unknown"
}

func kernelRelease() string {
	raw, err := os.ReadFile("/proc/sys/kernel/osrelease")
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(raw))
}
