// Command filterd serves a membership filter (and optionally an LSM
// key-value store) over HTTP. Point probes are answered directly;
// clients batch by sending binary frames, which run through the
// hash-once/probe-many kernels whole (DESIGN.md §11). It also bundles the
// small client verbs the smoke tests and operators need: build a
// filter file, probe a running server, write keys, and trigger a
// zero-downtime filter reload.
//
// Usage:
//
//	filterd build -o keys.bbf -n 100000 -seed 42
//	filterd serve -addr 127.0.0.1:8077 -filter keys.bbf -store /data/kv
//	filterd probe -addr 127.0.0.1:8077 -keys 1,2,3 [-binary] [-get]
//	filterd put -addr 127.0.0.1:8077 -key 7 -value 99
//	filterd del -addr 127.0.0.1:8077 -key 7
//	filterd reload -addr 127.0.0.1:8077 -path new.bbf
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unicode/utf8"

	"beyondbloom/internal/bloom"
	"beyondbloom/internal/concurrent"
	"beyondbloom/internal/core"
	"beyondbloom/internal/lsm"
	"beyondbloom/internal/server"
	"beyondbloom/internal/workload"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "serve":
		err = cmdServe(os.Args[2:])
	case "build":
		err = cmdBuild(os.Args[2:])
	case "probe":
		err = cmdProbe(os.Args[2:])
	case "put", "del":
		err = cmdWrite(os.Args[1], os.Args[2:])
	case "reload":
		err = cmdReload(os.Args[2:])
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "filterd %s: %v\n", os.Args[1], err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  filterd serve  [-addr host:port] [-filter file.bbf] [-store dir] [-durability none|buffered|group|always]
                 [-max-inflight n] [-max-inflight-writes n] [-portfile path]
                 [-n keys] [-bits bits/key] [-log-shards k]
  filterd build  (-o file.bbf | -store dir [-policy none|bloom|monkey|maplet]) [-n keys] [-bits bits/key] [-seed s]
  filterd probe  -addr host:port (-key k | -keys k1,k2,...) [-binary] [-get]
  filterd put    -addr host:port -key k [-value v]
  filterd del    -addr host:port -key k
  filterd reload -addr host:port -path file.bbf`)
}

// cmdServe builds the engine from flags and serves until SIGINT or
// SIGTERM, then shuts down in dependency order: stop accepting HTTP and
// wait for in-flight requests to finish, close the engine so anything
// later fails fast, and only then close the store, so every drained
// request still had a backend.
func cmdServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:8077", "listen address")
	filterPath := fs.String("filter", "", "serve this .bbf filter file (read-only membership)")
	storeDir := fs.String("store", "", "attach an LSM key-value store in this directory")
	durability := fs.String("durability", "group", "store WAL mode: none, buffered, group, always")
	maxInflight := fs.Int("max-inflight", 0, "read admission budget in keys (0 = default)")
	maxInflightWrites := fs.Int("max-inflight-writes", 0, "write admission budget (0 = default)")
	n := fs.Int("n", 1<<20, "fresh mutable filter capacity (when -filter is not set)")
	bits := fs.Float64("bits", 12, "fresh mutable filter bits per key")
	logShards := fs.Uint("log-shards", 2, "fresh mutable filter log2(shards)")
	portfile := fs.String("portfile", "", "write the bound address to this file once listening")
	fs.Parse(args)

	var filter core.Filter
	if *filterPath != "" {
		f, err := server.LoadFilterFile(*filterPath)
		if err != nil {
			return err
		}
		filter = f
	} else {
		perShard := *n>>*logShards + 1
		var shardErr error
		sh, err := concurrent.NewShardedMutable(*logShards, func(int) core.MutableFilter {
			f, err := newBlocked(perShard, *bits)
			if err != nil {
				shardErr = err
				return nil
			}
			return f
		})
		if shardErr != nil {
			return shardErr
		}
		if err != nil {
			return err
		}
		filter = sh
	}

	var store *lsm.Store
	if *storeDir != "" {
		mode, err := parseDurability(*durability)
		if err != nil {
			return err
		}
		store, err = openStore(*storeDir, mode)
		if err != nil {
			return err
		}
	}

	engine, err := server.NewEngine(filter, store, server.Config{
		MaxInflightKeys:   *maxInflight,
		MaxInflightWrites: *maxInflightWrites,
	})
	if err != nil {
		return err
	}
	if *filterPath != "" {
		// Record the source path so /debug/vars and reload responses name
		// the generation correctly.
		engine.Filter().Path = *filterPath
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	if *portfile != "" {
		if err := os.WriteFile(*portfile, []byte(ln.Addr().String()), 0o644); err != nil {
			return err
		}
	}
	httpSrv := &http.Server{Handler: server.New(engine)}
	fmt.Printf("filterd: serving on %s (filter=%q store=%q)\n", ln.Addr(), *filterPath, *storeDir)

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	select {
	case sig := <-stop:
		fmt.Printf("filterd: %v, shutting down\n", sig)
	case err := <-serveErr:
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil {
		return err
	}
	engine.Close()
	if store != nil {
		if err := store.Close(); err != nil {
			return err
		}
	}
	fmt.Println("filterd: clean shutdown")
	return nil
}

// openStore opens dir for serving. A bare directory is bootstrapped
// with per-run Bloom filters (the zero Options.Policy is PolicyNone). A
// directory with a manifest keeps the policy it was written with: the
// manifest is authoritative and OpenStore rejects an explicit policy
// that disagrees with it, so none is passed.
func openStore(dir string, mode lsm.Durability) (*lsm.Store, error) {
	opts := lsm.Options{Background: true, Durability: mode}
	if _, err := os.Stat(filepath.Join(dir, lsm.ManifestName)); errors.Is(err, os.ErrNotExist) {
		opts.Policy = lsm.PolicyBloom
	}
	return lsm.OpenStore(dir, opts)
}

func parsePolicy(s string) (lsm.FilterPolicy, error) {
	switch s {
	case "none":
		return lsm.PolicyNone, nil
	case "bloom":
		return lsm.PolicyBloom, nil
	case "monkey":
		return lsm.PolicyMonkey, nil
	case "maplet":
		return lsm.PolicyMaplet, nil
	}
	return 0, fmt.Errorf("unknown policy %q", s)
}

func parseDurability(s string) (lsm.Durability, error) {
	switch s {
	case "none":
		return lsm.DurabilityNone, nil
	case "buffered":
		return lsm.DurabilityBuffered, nil
	case "group":
		return lsm.DurabilityGroup, nil
	case "always":
		return lsm.DurabilityAlways, nil
	}
	return 0, fmt.Errorf("unknown durability %q", s)
}

// newBlocked builds the blocked Bloom filter NewBlocked would, but
// reports a bits-per-key budget out of range as an error, not a panic.
func newBlocked(n int, bits float64) (*bloom.Blocked, error) {
	return bloom.BlockedFromSpec(core.Spec{Type: core.TypeBlockedBloom, N: n, BitsPerKey: bits, Seed: bloom.BlockedSeed})
}

// buildChunk is how many keys build -store generates and applies at a
// time.
const buildChunk = 4096

// forEachKeyChunk calls fn with the workload key stream Keys(n, seed)
// in order, buildChunk keys at a time, in one reused buffer.
func forEachKeyChunk(n int, seed uint64, fn func(keys []uint64) error) error {
	var buf [buildChunk]uint64
	gen := workload.Gen(seed)
	for at := 0; at < n; at += buildChunk {
		keys := buf[:min(buildChunk, n-at)]
		gen(at, keys)
		if err := fn(keys); err != nil {
			return err
		}
	}
	return nil
}

// writeFileAtomic writes path through write into a temporary file in
// path's directory and renames it over path only once write, the flush
// and the close have all succeeded; on any failure it removes the
// temporary file and leaves path as it was. A reader of path — serve
// -filter, /admin/reload — sees the old file or the whole new one,
// never a truncated one. The file is not synced: this guards against a
// failed build, not against a crash of the machine.
func writeFileAtomic(path string, write func(io.Writer) error) (err error) {
	tmp := fmt.Sprintf("%s.tmp-%d", path, os.Getpid())
	file, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o666)
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			file.Close()
			os.Remove(tmp)
		}
	}()
	w := bufio.NewWriter(file)
	if err = write(w); err != nil {
		return err
	}
	if err = w.Flush(); err != nil {
		return err
	}
	if err = file.Close(); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// cmdBuild writes a .bbf filter file holding n deterministic workload
// keys — enough to serve, smoke-test, and demonstrate hot reload
// without a separate ingestion pipeline. With -store it instead (or
// additionally) seeds an LSM store directory with the same key stream
// (value = key) under the chosen filter policy, so serve -store can
// exercise any read path — including the maplet-first index — end to
// end. The keys are streamed, a chunk at a time, never materialised
// whole; the filter is filled on every core (Blocked.Fill), and the
// file appears at -o only once it is complete.
func cmdBuild(args []string) error {
	fs := flag.NewFlagSet("build", flag.ExitOnError)
	out := fs.String("o", "", "output .bbf path")
	storeDir := fs.String("store", "", "seed an LSM store directory with the key stream (value = key)")
	policy := fs.String("policy", "bloom", "store filter policy: none, bloom, monkey, maplet")
	n := fs.Int("n", 100000, "number of keys")
	bits := fs.Float64("bits", 12, "bits per key")
	seed := fs.Uint64("seed", 42, "key-stream seed")
	fs.Parse(args)
	if *out == "" && *storeDir == "" {
		return errors.New("one of -o or -store is required")
	}
	if *n < 0 {
		return fmt.Errorf("-n %d is negative", *n)
	}
	var f *bloom.Blocked
	if *out != "" {
		var err error
		if f, err = newBlocked(*n+1, *bits); err != nil {
			return err
		}
	}
	if *storeDir != "" {
		pol, err := parsePolicy(*policy)
		if err != nil {
			return err
		}
		st, err := lsm.NewStore(lsm.Options{Policy: pol})
		if err != nil {
			return err
		}
		err = forEachKeyChunk(*n, *seed, func(keys []uint64) error {
			for _, k := range keys {
				if err := st.Apply(lsm.Entry{Key: k, Value: k}); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
		st.Flush()
		if err := st.Save(*storeDir); err != nil {
			return err
		}
		fmt.Printf("filterd: seeded store %s with %d keys (policy=%s, seed %d)\n", *storeDir, *n, *policy, *seed)
	}
	if f == nil {
		return nil
	}
	f.Fill(*n, workload.Gen(*seed))
	var bytesOut int64
	err := writeFileAtomic(*out, func(w io.Writer) error {
		var err error
		bytesOut, err = core.Save(w, f)
		return err
	})
	if err != nil {
		return err
	}
	fmt.Printf("filterd: wrote %d keys (%d bytes, seed %d) to %s\n", *n, bytesOut, *seed, *out)
	return nil
}

func parseKeys(one string, many string) ([]uint64, error) {
	if (one == "") == (many == "") {
		return nil, errors.New("exactly one of -key or -keys is required")
	}
	parts := []string{one}
	if many != "" {
		parts = strings.Split(many, ",")
	}
	keys := make([]uint64, 0, len(parts))
	for _, p := range parts {
		k, err := strconv.ParseUint(strings.TrimSpace(p), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad key %q: %v", p, err)
		}
		keys = append(keys, k)
	}
	return keys, nil
}

// cmdProbe queries a running server. JSON mode hits /v1/contains or
// /v1/get, sending -key as {"key": k} (a scalar answer) and -keys as
// {"keys": [...]} (arrays, whatever the count); -binary sends one wire
// frame to /v1/probe and decodes the response, exercising the same hot
// path the golden tests pin.
func cmdProbe(args []string) error {
	fs := flag.NewFlagSet("probe", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:8077", "server address")
	key := fs.String("key", "", "single key")
	keys := fs.String("keys", "", "comma-separated keys")
	binary := fs.Bool("binary", false, "use the binary /v1/probe frame")
	get := fs.Bool("get", false, "KV lookup instead of membership")
	fs.Parse(args)
	ks, err := parseKeys(*key, *keys)
	if err != nil {
		return err
	}

	if *binary {
		op := byte(server.OpContains)
		if *get {
			op = server.OpGet
		}
		frame := server.AppendBinaryRequest(nil, op, ks)
		body, err := post("http://"+*addr+"/v1/probe", server.BinaryContentType, frame)
		if err != nil {
			return err
		}
		var resp server.Response
		if err := server.DecodeBinaryResponse(body, &resp); err != nil {
			return err
		}
		for i, k := range ks {
			if *get {
				fmt.Printf("%d\tfound=%v\tvalue=%d\n", k, resp.Found[i], resp.Values[i])
			} else {
				fmt.Printf("%d\tfound=%v\n", k, resp.Found[i])
			}
		}
		return nil
	}

	path := "/v1/contains"
	if *get {
		path = "/v1/get"
	}
	req := fmt.Sprintf(`{"keys": [%s]}`, joinKeys(ks))
	if *key != "" {
		req = fmt.Sprintf(`{"key": %d}`, ks[0])
	}
	body, err := post("http://"+*addr+path, "application/json", []byte(req))
	if err != nil {
		return err
	}
	fmt.Println(strings.TrimSpace(string(body)))
	return nil
}

// cmdWrite puts or deletes one KV key on a running server.
func cmdWrite(verb string, args []string) error {
	fs := flag.NewFlagSet(verb, flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:8077", "server address")
	key := fs.String("key", "", "key (required)")
	value := fs.Uint64("value", 0, "value (put only)")
	fs.Parse(args)
	if *key == "" {
		return errors.New("-key is required")
	}
	k, err := strconv.ParseUint(*key, 10, 64)
	if err != nil {
		return fmt.Errorf("bad key %q: %v", *key, err)
	}
	var path, req string
	if verb == "put" {
		path, req = "/v1/put", fmt.Sprintf(`{"key": %d, "value": %d}`, k, *value)
	} else {
		path, req = "/v1/delete", fmt.Sprintf(`{"key": %d}`, k)
	}
	body, err := post("http://"+*addr+path, "application/json", []byte(req))
	if err != nil {
		return err
	}
	fmt.Println(strings.TrimSpace(string(body)))
	return nil
}

// cmdReload asks a running server to hand serving over to a new
// filter file.
func cmdReload(args []string) error {
	fs := flag.NewFlagSet("reload", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:8077", "server address")
	path := fs.String("path", "", ".bbf file the server should load (required)")
	fs.Parse(args)
	if *path == "" {
		return errors.New("-path is required")
	}
	// A JSON string carries Unicode text: bytes that are not UTF-8 would
	// reach the server as U+FFFD, naming some other file.
	if !utf8.ValidString(*path) {
		return fmt.Errorf("-path %q is not valid UTF-8, which a JSON body cannot carry", *path)
	}
	req, err := json.Marshal(struct {
		Path string `json:"path"`
	}{*path})
	if err != nil {
		return err
	}
	body, err := post("http://"+*addr+"/admin/reload", "application/json", req)
	if err != nil {
		return err
	}
	fmt.Println(strings.TrimSpace(string(body)))
	return nil
}

func joinKeys(ks []uint64) string {
	var b strings.Builder
	for i, k := range ks {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%d", k)
	}
	return b.String()
}

func post(url, contentType string, body []byte) ([]byte, error) {
	resp, err := http.Post(url, contentType, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("HTTP %d: %s", resp.StatusCode, strings.TrimSpace(string(out)))
	}
	return out, nil
}
