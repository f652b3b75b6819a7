package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"

	"beyondbloom/internal/lsm"
)

// maxJSONBody caps JSON request bodies; the binary cap is implied by
// MaxWireBatch. Both are enforced before parsing.
const maxJSONBody = 1 << 20

// Server is the HTTP front: thin, synchronous handlers over the
// Engine. JSON endpoints serve humans and tests; /v1/probe speaks the
// binary frame format for hot clients, through pooled scratch buffers
// so the handler body allocates nothing per request at steady state.
type Server struct {
	e       *Engine
	mux     *http.ServeMux
	scratch sync.Pool // *probeScratch
}

// probeScratch is the reusable state of one binary probe: the request
// body, the decoded request, result slots, and the response frame.
type probeScratch struct {
	body  []byte
	req   Request
	vals  []uint64
	found []bool
	resp  []byte
}

// New builds the HTTP layer over an engine.
func New(e *Engine) *Server {
	s := &Server{e: e, mux: http.NewServeMux()}
	s.mux.HandleFunc("POST /v1/contains", s.handleContains)
	s.mux.HandleFunc("POST /v1/get", s.handleGet)
	s.mux.HandleFunc("POST /v1/insert", s.handleInsert)
	s.mux.HandleFunc("POST /v1/put", s.handlePut)
	s.mux.HandleFunc("POST /v1/delete", s.handleDelete)
	s.mux.HandleFunc("POST /v1/probe", s.handleProbe)
	s.mux.HandleFunc("POST /admin/reload", s.handleReload)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /debug/vars", s.handleVars)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Engine returns the service core (tests and cmd/filterd use it).
func (s *Server) Engine() *Engine { return s.e }

// fail maps a service error to its HTTP status and counts it.
func (s *Server) fail(w http.ResponseWriter, err error) {
	m := s.e.Metrics()
	status := http.StatusInternalServerError
	switch {
	case errors.Is(err, ErrMalformed):
		m.ErrMalformed.Add(1)
		status = http.StatusBadRequest
	case errors.Is(err, ErrTooLarge):
		m.ErrTooLarge.Add(1)
		status = http.StatusRequestEntityTooLarge
	case errors.Is(err, ErrOverloaded):
		m.ErrOverload.Add(1)
		status = http.StatusTooManyRequests
	case errors.Is(err, ErrShutdown):
		m.ErrShutdown.Add(1)
		status = http.StatusServiceUnavailable
	case errors.Is(err, ErrNoStore):
		status = http.StatusNotImplemented
	case errors.Is(err, ErrReadOnly):
		status = http.StatusConflict
	default:
		m.ErrInternal.Add(1)
	}
	http.Error(w, err.Error(), status)
}

func (s *Server) readBody(w http.ResponseWriter, r *http.Request, limit int64) ([]byte, bool) {
	body, err := io.ReadAll(io.LimitReader(r.Body, limit+1))
	if err != nil {
		s.fail(w, fmt.Errorf("%w: reading body: %v", ErrMalformed, err))
		return nil, false
	}
	if int64(len(body)) > limit {
		s.fail(w, fmt.Errorf("%w: body over %d bytes", ErrTooLarge, limit))
		return nil, false
	}
	return body, true
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

// handleContains answers membership in the form it was asked:
// {"key": k} gets a scalar from the point path, {"keys": [...]} an
// array from the batch path, even for a one-element list.
func (s *Server) handleContains(w http.ResponseWriter, r *http.Request) {
	body, ok := s.readBody(w, r, maxJSONBody)
	if !ok {
		return
	}
	var req Request
	point, err := decodeJSONKeys(OpContains, body, &req)
	if err != nil {
		s.fail(w, err)
		return
	}
	if point {
		found, err := s.e.Contains(r.Context(), req.Keys[0])
		if err != nil {
			s.fail(w, err)
			return
		}
		writeJSON(w, map[string]bool{"found": found})
		return
	}
	out := make([]bool, len(req.Keys))
	if err := s.e.ContainsBatch(req.Keys, out); err != nil {
		s.fail(w, err)
		return
	}
	writeJSON(w, map[string][]bool{"found": out})
}

// handleGet answers LSM lookups, dispatching on the body's form as
// handleContains does.
func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	body, ok := s.readBody(w, r, maxJSONBody)
	if !ok {
		return
	}
	var req Request
	point, err := decodeJSONKeys(OpGet, body, &req)
	if err != nil {
		s.fail(w, err)
		return
	}
	if point {
		value, found, err := s.e.Get(r.Context(), req.Keys[0])
		if err != nil {
			s.fail(w, err)
			return
		}
		writeJSON(w, map[string]any{"value": value, "found": found})
		return
	}
	values := make([]uint64, len(req.Keys))
	found := make([]bool, len(req.Keys))
	if err := s.e.GetBatch(req.Keys, values, found); err != nil {
		s.fail(w, err)
		return
	}
	writeJSON(w, map[string]any{"values": values, "found": found})
}

func (s *Server) handleInsert(w http.ResponseWriter, r *http.Request) {
	body, ok := s.readBody(w, r, maxJSONBody)
	if !ok {
		return
	}
	var req Request
	if err := DecodeJSONKeys(OpContains, body, &req); err != nil {
		s.fail(w, err)
		return
	}
	if err := s.e.InsertBatch(req.Keys); err != nil {
		s.fail(w, err)
		return
	}
	writeJSON(w, map[string]bool{"ok": true})
}

// jsonEntry is one mutation in a /v1/put body.
type jsonEntry struct {
	Key       uint64 `json:"key"`
	Value     uint64 `json:"value"`
	Tombstone bool   `json:"tombstone"`
}

type jsonPut struct {
	Key     *uint64     `json:"key"`
	Value   uint64      `json:"value"`
	Entries []jsonEntry `json:"entries"`
}

// handlePut applies {"key": k, "value": v} or a batched
// {"entries": [...]} — the batch becomes one atomic WAL record on
// durable stores (group commit does the rest).
func (s *Server) handlePut(w http.ResponseWriter, r *http.Request) {
	body, ok := s.readBody(w, r, maxJSONBody)
	if !ok {
		return
	}
	var req jsonPut
	if err := json.Unmarshal(body, &req); err != nil {
		s.fail(w, fmt.Errorf("%w: %v", ErrMalformed, err))
		return
	}
	var entries []lsm.Entry
	switch {
	case req.Key != nil && req.Entries == nil:
		entries = []lsm.Entry{{Key: *req.Key, Value: req.Value}}
	case req.Key == nil && len(req.Entries) > 0:
		if len(req.Entries) > MaxWireBatch {
			s.fail(w, fmt.Errorf("%w: %d entries", ErrTooLarge, len(req.Entries)))
			return
		}
		entries = make([]lsm.Entry, len(req.Entries))
		for i, e := range req.Entries {
			entries[i] = lsm.Entry{Key: e.Key, Value: e.Value, Tombstone: e.Tombstone}
		}
	default:
		s.fail(w, fmt.Errorf(`%w: body needs "key" or a non-empty "entries"`, ErrMalformed))
		return
	}
	if err := s.e.Apply(entries...); err != nil {
		s.fail(w, err)
		return
	}
	writeJSON(w, map[string]bool{"ok": true})
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	body, ok := s.readBody(w, r, maxJSONBody)
	if !ok {
		return
	}
	var req Request
	if err := DecodeJSONKeys(OpGet, body, &req); err != nil {
		s.fail(w, err)
		return
	}
	entries := make([]lsm.Entry, len(req.Keys))
	for i, k := range req.Keys {
		entries[i] = lsm.Entry{Key: k, Tombstone: true}
	}
	if err := s.e.Apply(entries...); err != nil {
		s.fail(w, err)
		return
	}
	writeJSON(w, map[string]bool{"ok": true})
}

// handleProbe is the binary hot path: one frame in, one frame out,
// through pooled scratch. See probeFrame for the allocation contract.
func (s *Server) handleProbe(w http.ResponseWriter, r *http.Request) {
	if ct := r.Header.Get("Content-Type"); ct != BinaryContentType {
		http.Error(w, "use Content-Type "+BinaryContentType, http.StatusUnsupportedMediaType)
		return
	}
	s.e.Metrics().ReqProbeBinary.Add(1)
	sc, _ := s.scratch.Get().(*probeScratch)
	if sc == nil {
		sc = &probeScratch{}
	}
	defer s.scratch.Put(sc)
	limit := int64(reqHeaderLen + 8*MaxWireBatch)
	var err error
	sc.body, err = readInto(sc.body[:0], r.Body, limit+1)
	if err != nil {
		s.fail(w, fmt.Errorf("%w: reading body: %v", ErrMalformed, err))
		return
	}
	if int64(len(sc.body)) > limit {
		s.fail(w, fmt.Errorf("%w: frame over %d bytes", ErrTooLarge, limit))
		return
	}
	frame, err := s.probeFrame(sc)
	if err != nil {
		s.fail(w, err)
		return
	}
	// An explicit length keeps replies over net/http's 2 KiB buffer
	// (a 256-key OpGet frame is 2088 bytes) from going out chunked.
	h := w.Header()
	h.Set("Content-Type", BinaryContentType)
	h.Set("Content-Length", strconv.Itoa(len(frame)))
	w.Write(frame)
}

// probeFrame decodes sc.body, probes, and encodes the response into
// sc.resp. This is the steady-state zero-allocation path the
// AllocsPerRun regression test pins: decode reuses sc.req.Keys, the
// result slots and response frame reuse sc's slices, and the batch
// probe itself is allocation-free.
func (s *Server) probeFrame(sc *probeScratch) ([]byte, error) {
	if err := DecodeBinaryRequest(sc.body, &sc.req); err != nil {
		return nil, err
	}
	n := len(sc.req.Keys)
	if cap(sc.found) < n {
		sc.found = make([]bool, n)
		sc.vals = make([]uint64, n)
	}
	sc.found = sc.found[:n]
	sc.vals = sc.vals[:n]
	switch sc.req.Op {
	case OpContains:
		if err := s.e.ContainsBatch(sc.req.Keys, sc.found); err != nil {
			return nil, err
		}
	case OpGet:
		if err := s.e.GetBatch(sc.req.Keys, sc.vals, sc.found); err != nil {
			return nil, err
		}
	}
	sc.resp = AppendBinaryResponse(sc.resp[:0], sc.req.Op, sc.found, sc.vals)
	return sc.resp, nil
}

// readInto is io.ReadAll into a reusable buffer.
func readInto(dst []byte, r io.Reader, max int64) ([]byte, error) {
	for int64(len(dst)) < max {
		if len(dst) == cap(dst) {
			dst = append(dst, 0)[:len(dst)]
		}
		n, err := r.Read(dst[len(dst):cap(dst)])
		dst = dst[:len(dst)+n]
		if err == io.EOF {
			return dst, nil
		}
		if err != nil {
			return dst, err
		}
	}
	return dst, nil
}

type jsonReload struct {
	Path string `json:"path"`
}

func (s *Server) handleReload(w http.ResponseWriter, r *http.Request) {
	body, ok := s.readBody(w, r, maxJSONBody)
	if !ok {
		return
	}
	var req jsonReload
	if err := json.Unmarshal(body, &req); err != nil || req.Path == "" {
		s.fail(w, fmt.Errorf(`%w: body needs "path"`, ErrMalformed))
		return
	}
	snap, err := s.e.Reload(req.Path)
	if err != nil {
		s.fail(w, err)
		return
	}
	writeJSON(w, map[string]any{
		"ok":        true,
		"gen":       snap.Gen,
		"path":      snap.Path,
		"size_bits": snap.SizeBits,
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	s.e.MetricsText(w)
}

func (s *Server) handleVars(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	s.e.DebugVars(w)
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, map[string]any{"status": "ok", "gen": s.e.Filter().Gen})
}
