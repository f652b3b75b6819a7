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
// Engine. Every data route reads its body into pooled scratch, decodes
// it in place (JSON for humans and tests, and the only form of writes;
// /v1/probe speaks the binary frame format for hot reads), and appends
// its reply into the same scratch, so the handler body allocates
// nothing per request at steady state.
type Server struct {
	e       *Engine
	mux     *http.ServeMux
	scratch sync.Pool // *probeScratch
}

// probeScratch is the reusable state of one data-route request: the
// body, the decoded keys or entries, result slots, and the reply.
type probeScratch struct {
	body    []byte
	req     Request
	entries []lsm.Entry
	vals    []uint64
	found   []bool
	resp    []byte
}

// size makes the result slots n long.
func (sc *probeScratch) size(n int) {
	if cap(sc.found) < n {
		sc.found = make([]bool, n)
		sc.vals = make([]uint64, n)
	}
	sc.found = sc.found[:n]
	sc.vals = sc.vals[:n]
}

const jsonContentType = "application/json"

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

// readBody reads the request body into pooled scratch, refusing one
// over limit bytes. On success the caller puts sc back in s.scratch.
func (s *Server) readBody(w http.ResponseWriter, r *http.Request, limit int64) (*probeScratch, bool) {
	sc, _ := s.scratch.Get().(*probeScratch)
	if sc == nil {
		sc = &probeScratch{}
	}
	var err error
	sc.body, err = readInto(sc.body[:0], r.Body, limit+1)
	switch {
	case err != nil:
		err = fmt.Errorf("%w: reading body: %v", ErrMalformed, err)
	case int64(len(sc.body)) > limit:
		err = fmt.Errorf("%w: body over %d bytes", ErrTooLarge, limit)
	default:
		return sc, true
	}
	s.scratch.Put(sc)
	s.fail(w, err)
	return nil, false
}

// writeBody writes a whole reply with its length, so a reply over
// net/http's 2 KiB buffer (a 256-key OpGet frame is 2088 bytes) does
// not go out chunked.
func writeBody(w http.ResponseWriter, contentType string, body []byte) {
	h := w.Header()
	h.Set("Content-Type", contentType)
	h.Set("Content-Length", strconv.Itoa(len(body)))
	w.Write(body)
}

// writeJSON encodes an admin route's reply by reflection.
func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", jsonContentType)
	json.NewEncoder(w).Encode(v)
}

// handleContains answers membership in the form it was asked:
// {"key": k} gets a scalar from the point path, {"keys": [...]} an
// array from the batch path, even for a one-element list.
func (s *Server) handleContains(w http.ResponseWriter, r *http.Request) {
	sc, ok := s.readBody(w, r, maxJSONBody)
	if !ok {
		return
	}
	defer s.scratch.Put(sc)
	point, err := decodeJSONKeys(OpContains, sc.body, &sc.req)
	if err == nil {
		sc.size(len(sc.req.Keys))
		if point {
			sc.found[0], err = s.e.Contains(r.Context(), sc.req.Keys[0])
		} else {
			err = s.e.ContainsBatch(sc.req.Keys, sc.found)
		}
	}
	if err != nil {
		s.fail(w, err)
		return
	}
	sc.resp = appendContainsReply(sc.resp[:0], point, sc.found)
	writeBody(w, jsonContentType, sc.resp)
}

// handleGet answers LSM lookups, dispatching on the body's form as
// handleContains does.
func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	sc, ok := s.readBody(w, r, maxJSONBody)
	if !ok {
		return
	}
	defer s.scratch.Put(sc)
	point, err := decodeJSONKeys(OpGet, sc.body, &sc.req)
	if err == nil {
		sc.size(len(sc.req.Keys))
		if point {
			sc.vals[0], sc.found[0], err = s.e.Get(r.Context(), sc.req.Keys[0])
		} else {
			err = s.e.GetBatch(sc.req.Keys, sc.vals, sc.found)
		}
	}
	if err != nil {
		s.fail(w, err)
		return
	}
	sc.resp = appendGetReply(sc.resp[:0], point, sc.found, sc.vals)
	writeBody(w, jsonContentType, sc.resp)
}

func (s *Server) handleInsert(w http.ResponseWriter, r *http.Request) {
	sc, ok := s.readBody(w, r, maxJSONBody)
	if !ok {
		return
	}
	defer s.scratch.Put(sc)
	err := DecodeJSONKeys(OpContains, sc.body, &sc.req)
	if err == nil {
		err = s.e.InsertBatch(sc.req.Keys)
	}
	if err != nil {
		s.fail(w, err)
		return
	}
	writeBody(w, jsonContentType, okReply)
}

// handlePut applies {"key": k, "value": v} or a batched
// {"entries": [...]} — the batch becomes one atomic WAL record on
// durable stores (group commit does the rest). Store.Apply does not
// retain the entries, so they live in the pooled scratch.
func (s *Server) handlePut(w http.ResponseWriter, r *http.Request) {
	sc, ok := s.readBody(w, r, maxJSONBody)
	if !ok {
		return
	}
	defer s.scratch.Put(sc)
	entries, err := decodePutBody(sc.body, sc.entries)
	if err == nil {
		sc.entries = entries
		err = s.e.Apply(entries...)
	}
	if err != nil {
		s.fail(w, err)
		return
	}
	writeBody(w, jsonContentType, okReply)
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	sc, ok := s.readBody(w, r, maxJSONBody)
	if !ok {
		return
	}
	defer s.scratch.Put(sc)
	err := DecodeJSONKeys(OpGet, sc.body, &sc.req)
	if err == nil {
		sc.entries = sc.entries[:0]
		for _, k := range sc.req.Keys {
			sc.entries = append(sc.entries, lsm.Entry{Key: k, Tombstone: true})
		}
		err = s.e.applyDeletes(sc.entries)
	}
	if err != nil {
		s.fail(w, err)
		return
	}
	writeBody(w, jsonContentType, okReply)
}

// handleProbe is the binary hot path: one frame in, one frame out,
// through pooled scratch. See probeFrame for the allocation contract.
func (s *Server) handleProbe(w http.ResponseWriter, r *http.Request) {
	if ct := r.Header.Get("Content-Type"); ct != BinaryContentType {
		http.Error(w, "use Content-Type "+BinaryContentType, http.StatusUnsupportedMediaType)
		return
	}
	s.e.Metrics().ReqProbeBinary.Add(1)
	sc, ok := s.readBody(w, r, reqHeaderLen+8*MaxWireBatch)
	if !ok {
		return
	}
	defer s.scratch.Put(sc)
	frame, err := s.probeFrame(sc)
	if err != nil {
		s.fail(w, err)
		return
	}
	writeBody(w, BinaryContentType, frame)
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
	sc.size(len(sc.req.Keys))
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
	sc, ok := s.readBody(w, r, maxJSONBody)
	if !ok {
		return
	}
	defer s.scratch.Put(sc)
	var req jsonReload
	if err := json.Unmarshal(sc.body, &req); err != nil || req.Path == "" {
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
