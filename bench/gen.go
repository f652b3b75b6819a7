package main

import (
	"fmt"
	"strconv"

	"beyondbloom/internal/hashutil"
	"beyondbloom/internal/lsm"
	"beyondbloom/internal/server"
)

// presentKey is the i-th key of workload.Keys(n, seed) for any n > i —
// the stream `filterd build -seed` inserts — and absentKey the i-th of
// workload.DisjointKeys, which no present key equals. Keys are computed
// where they are used, so the generator holds no key arrays.
func presentKey(seed, i uint64) uint64 { return hashutil.Mix64(i + seed<<32) }
func absentKey(seed, i uint64) uint64  { return hashutil.Mix64(i + seed<<32 + 1<<48) }

// absentSpace is how many distinct absent keys a stream draws from.
const absentSpace = 1 << 30

// rng is a splitmix64 counter stream: equal seeds give equal requests.
type rng struct{ s uint64 }

func newRNG(seed uint64, workload string, conn int) *rng {
	return &rng{hashutil.Mix64(seed ^ hashutil.Sum64String(workload, uint64(conn)+1))}
}

func (r *rng) next() uint64 {
	r.s++
	return hashutil.Mix64(r.s)
}

func (r *rng) below(n uint64) uint64 { return hashutil.Reduce(r.next(), n) }

// reqKind is a request type on the wire; each kind's latency is
// recorded separately.
type reqKind int

const (
	kindProbe    reqKind = iota // binary OpContains frame on /v1/probe
	kindGet                     // binary OpGet frame on /v1/probe
	kindContains                // JSON {"key":k} on /v1/contains (coalesced)
	kindInsert                  // JSON {"key":k} on /v1/insert
	kindPut                     // JSON {"entries":[...]} on /v1/put
	numKinds
)

var kindNames = [numKinds]string{"probe", "get", "contains", "insert", "put"}

// request is one generated request: read kinds carry keys, kindPut
// carries entries. The slices are reused from request to request.
type request struct {
	kind    reqKind
	keys    []uint64
	entries []lsm.Entry
}

// size is the number of keys answered or entries acknowledged.
func (r *request) size() int {
	if r.kind == kindPut {
		return len(r.entries)
	}
	return len(r.keys)
}

func (r *request) path() string {
	switch r.kind {
	case kindContains:
		return "/v1/contains"
	case kindInsert:
		return "/v1/insert"
	case kindPut:
		return "/v1/put"
	}
	return "/v1/probe"
}

func (r *request) contentType() string {
	if r.kind == kindProbe || r.kind == kindGet {
		return server.BinaryContentType
	}
	return "application/json"
}

// appendBody appends the request's wire body to dst.
func (r *request) appendBody(dst []byte) []byte {
	switch r.kind {
	case kindProbe:
		return server.AppendBinaryRequest(dst, server.OpContains, r.keys)
	case kindGet:
		return server.AppendBinaryRequest(dst, server.OpGet, r.keys)
	case kindContains, kindInsert:
		dst = append(dst, `{"key":`...)
		dst = strconv.AppendUint(dst, r.keys[0], 10)
		return append(dst, '}')
	}
	dst = append(dst, `{"entries":[`...)
	for i, e := range r.entries {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, `{"key":`...)
		dst = strconv.AppendUint(dst, e.Key, 10)
		dst = append(dst, `,"value":`...)
		dst = strconv.AppendUint(dst, e.Value, 10)
		dst = append(dst, '}')
	}
	return append(dst, "]}"...)
}

// tally is what verification counts: wrong answers (each fails the
// run) and, where absent keys probe an approximate filter, the false
// positives among the negative probes.
type tally struct {
	wrong     int64
	negatives int64
	falsePos  int64
	detail    string // the first wrong answer, with its key
}

func (t *tally) fail(format string, args ...any) {
	t.wrong++
	if t.detail == "" {
		t.detail = fmt.Sprintf(format, args...)
	}
}

func (t *tally) add(o *tally) {
	t.wrong += o.wrong
	t.negatives += o.negatives
	t.falsePos += o.falsePos
	if t.detail == "" {
		t.detail = o.detail
	}
}

// stream is one connection's deterministic request sequence plus the
// model its answers are checked against. The loop is closed, so one
// request is outstanding at a time: next builds it, verify checks its
// answer (found/values are empty for writes, whose acknowledgement the
// caller has already checked) and advances the model.
type stream interface {
	next(r *request)
	verify(r *request, found []bool, values []uint64, t *tally)
}

// probeBatchStream: frames of `batch` membership keys over a filter
// holding presentKey(0..n), alternating present and absent.
type probeBatchStream struct {
	seed, n uint64
	batch   int
	rng     *rng
}

func (s *probeBatchStream) next(r *request) {
	r.kind = kindProbe
	r.keys = r.keys[:0]
	for p := 0; p < s.batch; p++ {
		if p&1 == 0 {
			r.keys = append(r.keys, presentKey(s.seed, s.rng.below(s.n)))
		} else {
			r.keys = append(r.keys, absentKey(s.seed, s.rng.below(absentSpace)))
		}
	}
}

func (s *probeBatchStream) verify(r *request, found []bool, _ []uint64, t *tally) {
	if len(found) != len(r.keys) {
		t.fail("probe frame answered %d of %d keys", len(found), len(r.keys))
		return
	}
	for p, ok := range found {
		switch {
		case p&1 == 0 && !ok:
			t.fail("false negative: present key %d not found", r.keys[p])
		case p&1 == 1:
			t.negatives++
			if ok {
				t.falsePos++
			}
		}
	}
}

// probePointStream: 90 % coalesced point probes (half of keys
// preloaded at set-up, half absent) and 10 % point inserts of fresh
// keys, each connection inserting its own residue class of indices.
type probePointStream struct {
	seed, preload uint64
	conn, conns   uint64
	fresh         uint64
	present       bool
	rng           *rng
}

func (s *probePointStream) next(r *request) {
	x := s.rng.next()
	r.keys = r.keys[:0]
	switch {
	case x%10 == 0:
		r.kind = kindInsert
		r.keys = append(r.keys, presentKey(s.seed, s.preload+s.fresh*s.conns+s.conn))
		s.fresh++
	case x>>32&1 == 0:
		r.kind, s.present = kindContains, true
		r.keys = append(r.keys, presentKey(s.seed, s.rng.below(s.preload)))
	default:
		r.kind, s.present = kindContains, false
		r.keys = append(r.keys, absentKey(s.seed, s.rng.below(absentSpace)))
	}
}

func (s *probePointStream) verify(r *request, found []bool, _ []uint64, t *tally) {
	if r.kind == kindInsert {
		return
	}
	if len(found) != 1 {
		t.fail("point probe of key %d answered %d keys", r.keys[0], len(found))
		return
	}
	if s.present {
		if !found[0] {
			t.fail("false negative: preloaded key %d not found", r.keys[0])
		}
		return
	}
	t.negatives++
	if found[0] {
		t.falsePos++
	}
}

// kvReadStream: OpGet frames over a store seeded with
// presentKey(0..n) -> itself, alternating present and absent. The
// store is exact, so an absent key that is found is a wrong answer.
type kvReadStream struct {
	seed, n uint64
	batch   int
	rng     *rng
}

func (s *kvReadStream) next(r *request) {
	r.kind = kindGet
	r.keys = r.keys[:0]
	for p := 0; p < s.batch; p++ {
		if p&1 == 0 {
			r.keys = append(r.keys, presentKey(s.seed, s.rng.below(s.n)))
		} else {
			r.keys = append(r.keys, absentKey(s.seed, s.rng.below(absentSpace)))
		}
	}
}

func (s *kvReadStream) verify(r *request, found []bool, values []uint64, t *tally) {
	if len(found) != len(r.keys) || len(values) != len(r.keys) {
		t.fail("get frame answered %d of %d keys", len(found), len(r.keys))
		return
	}
	for p, k := range r.keys {
		switch {
		case p&1 == 0 && (!found[p] || values[p] != k):
			t.fail("seeded key %d: found=%v value=%d, want value=key", k, found[p], values[p])
		case p&1 == 1 && found[p]:
			t.fail("absent key %d found with value %d", k, values[p])
		}
	}
}

// kvWriteStream: a connection's own key stream (indices conn, conn+C,
// ...), alternating a put of `batch` entries — every 4th overwrites
// one of its own acknowledged keys with a bumped value — with a get
// frame of `batch` keys, half its own acknowledged keys (exact latest
// value required) and half absent. latest[m] is the acknowledged value
// of its m-th key: the model every read is checked against.
type kvWriteStream struct {
	seed        uint64
	conn, conns uint64
	batch       int
	rng         *rng
	latest      []uint64
	pending     []pendingWrite // the put in flight, applied on acknowledgement
	ords        []uint64       // own-key ordinals of the get in flight
	putNext     bool
}

type pendingWrite struct {
	ord   uint64
	value uint64
}

func newKVWriteStream(seed uint64, conn, conns int) *kvWriteStream {
	return &kvWriteStream{seed: seed, conn: uint64(conn), conns: uint64(conns), batch: 16,
		rng: newRNG(seed, "kv_write", conn), putNext: true}
}

func (s *kvWriteStream) key(ord uint64) uint64 { return presentKey(s.seed, ord*s.conns+s.conn) }

func (s *kvWriteStream) next(r *request) {
	if s.putNext {
		r.kind = kindPut
		r.entries = r.entries[:0]
		s.pending = s.pending[:0]
		fresh := uint64(len(s.latest))
		for e := 0; e < s.batch; e++ {
			var w pendingWrite
			if e%4 == 3 && len(s.latest) > 0 {
				w.ord = s.rng.below(uint64(len(s.latest)))
				w.value = s.latest[w.ord] + 1
				for _, p := range s.pending { // bumped twice in one batch
					if p.ord == w.ord {
						w.value = p.value + 1
					}
				}
			} else {
				w.ord = fresh
				w.value = s.key(fresh)
				fresh++
			}
			s.pending = append(s.pending, w)
			r.entries = append(r.entries, lsm.Entry{Key: s.key(w.ord), Value: w.value})
		}
	} else {
		r.kind = kindGet
		r.keys = r.keys[:0]
		s.ords = s.ords[:0]
		for p := 0; p < s.batch; p++ {
			if p&1 == 0 {
				ord := s.rng.below(uint64(len(s.latest)))
				s.ords = append(s.ords, ord)
				r.keys = append(r.keys, s.key(ord))
			} else {
				r.keys = append(r.keys, absentKey(s.seed, s.rng.below(absentSpace)))
			}
		}
	}
	s.putNext = !s.putNext
}

func (s *kvWriteStream) verify(r *request, found []bool, values []uint64, t *tally) {
	if r.kind == kindPut {
		for _, w := range s.pending {
			if w.ord == uint64(len(s.latest)) {
				s.latest = append(s.latest, w.value)
			} else {
				s.latest[w.ord] = w.value
			}
		}
		return
	}
	if len(found) != len(r.keys) || len(values) != len(r.keys) {
		t.fail("get frame answered %d of %d keys", len(found), len(r.keys))
		return
	}
	for p, k := range r.keys {
		if p&1 == 1 {
			if found[p] {
				t.fail("absent key %d found with value %d", k, values[p])
			}
			continue
		}
		if want := s.latest[s.ords[p/2]]; !found[p] || values[p] != want {
			t.fail("acknowledged key %d: found=%v value=%d, want %d", k, found[p], values[p], want)
		}
	}
}
