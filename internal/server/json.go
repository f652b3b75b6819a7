package server

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"strconv"
	"unicode/utf16"
	"unicode/utf8"

	"beyondbloom/internal/lsm"
)

// JSON bodies of the data routes, without reflection. One scanner
// parses every /v1/{contains,get,insert,delete,put} body in place, and
// the replies are appended into pooled scratch. The contract is
// encoding/json's: for every input, the accept/reject decision and the
// decoded keys or entries equal what json.Unmarshal into
//
//	struct{ Key *uint64 `json:"key"`; Keys []uint64 `json:"keys"` }
//	struct{ Key *uint64; Value uint64; Entries []struct{ Key, Value uint64; Tombstone bool } }
//
// gives after the handlers' post-checks (the fuzz targets hold the two
// side by side). That includes the corners: member names match
// exactly, then under bytes.EqualFold; the last duplicate wins; null
// resets a pointer or slice member, is a no-op on a scalar, and leaves
// an array element as the slice's backing array holds it, which is zero
// unless an earlier duplicate list wrote it; numbers must be unsigned
// 64-bit integers; strings reject control bytes but not invalid UTF-8;
// nesting stops at 10000. The one divergence: a list is rejected with
// ErrTooLarge as soon as its entry past MaxWireBatch appears, before
// the bytes after it are read.

// maxJSONDepth is encoding/json's nesting limit; the body's own object
// is depth 1.
const maxJSONDepth = 10000

// Member names of the two body shapes and of a put entry, in the order
// their decoders switch on.
var (
	keysNames  = []string{"key", "keys"}
	putNames   = []string{"key", "value", "entries"}
	entryNames = []string{"key", "value", "tombstone"}
)

// jsonScanner reads one JSON body left to right. Its methods consume
// one value each, after any leading whitespace, and return a wrapped
// ErrMalformed at the first byte encoding/json would refuse.
type jsonScanner struct {
	data []byte
	pos  int
	name [16]byte // an unescaped member name; longer ones match nothing
}

func (s *jsonScanner) fail(what string) error {
	if s.pos >= len(s.data) {
		return fmt.Errorf("%w: %s at end of body", ErrMalformed, what)
	}
	return fmt.Errorf("%w: %s at offset %d (%q)", ErrMalformed, what, s.pos, s.data[s.pos])
}

// peek skips whitespace and returns the next byte, or 0 at the end
// (a NUL byte is refused wherever a JSON token may start, so the two
// cannot be confused).
func (s *jsonScanner) peek() byte {
	for ; s.pos < len(s.data); s.pos++ {
		switch c := s.data[s.pos]; c {
		case ' ', '\t', '\n', '\r':
		default:
			return c
		}
	}
	return 0
}

// body scans a whole request body, which must be one object and
// nothing after it but whitespace.
func (s *jsonScanner) body(names []string, member func(field int) error) error {
	if err := s.object(1, names, member); err != nil {
		return err
	}
	if s.peek() != 0 {
		return s.fail("data after the body")
	}
	return nil
}

// object consumes an object at nesting depth. For each member it
// calls member with the index in names of the member's name (-1 for
// an unknown member, which member must skip), positioned at the value.
func (s *jsonScanner) object(depth int, names []string, member func(field int) error) error {
	if s.peek() != '{' {
		return s.fail("want an object")
	}
	if depth > maxJSONDepth {
		return s.fail("nesting too deep")
	}
	s.pos++
	if s.peek() == '}' {
		s.pos++
		return nil
	}
	for {
		field, err := s.memberName(names)
		if err != nil {
			return err
		}
		if s.peek() != ':' {
			return s.fail("want ':'")
		}
		s.pos++
		if err := member(field); err != nil {
			return err
		}
		switch s.peek() {
		case ',':
			s.pos++
		case '}':
			s.pos++
			return nil
		default:
			return s.fail("want ',' or '}'")
		}
	}
}

// array consumes an array at nesting depth, calling elem with each
// element's index, positioned at the element, and returns the count.
func (s *jsonScanner) array(depth int, elem func(i int) error) (int, error) {
	if s.peek() != '[' {
		return 0, s.fail("want an array")
	}
	if depth > maxJSONDepth {
		return 0, s.fail("nesting too deep")
	}
	s.pos++
	if s.peek() == ']' {
		s.pos++
		return 0, nil
	}
	for i := 0; ; i++ {
		if err := elem(i); err != nil {
			return 0, err
		}
		switch s.peek() {
		case ',':
			s.pos++
		case ']':
			s.pos++
			return i + 1, nil
		default:
			return 0, s.fail("want ',' or ']'")
		}
	}
}

// skip consumes and validates one value of any type; a container here
// would sit at nesting depth.
func (s *jsonScanner) skip(depth int) error {
	switch s.peek() {
	case '{':
		return s.object(depth, nil, func(int) error { return s.skip(depth + 1) })
	case '[':
		_, err := s.array(depth, func(int) error { return s.skip(depth + 1) })
		return err
	case '"':
		_, err := s.str()
		return err
	case 't':
		return s.literal("true")
	case 'f':
		return s.literal("false")
	case 'n':
		return s.literal("null")
	}
	return s.number()
}

// literal consumes lit, which the caller has peeked the first byte of.
func (s *jsonScanner) literal(lit string) error {
	if !s.hasPrefix(lit) {
		return s.fail("want " + lit)
	}
	s.pos += len(lit)
	return nil
}

func (s *jsonScanner) hasPrefix(lit string) bool {
	return len(s.data)-s.pos >= len(lit) && string(s.data[s.pos:s.pos+len(lit)]) == lit
}

// null consumes a null if one comes next.
func (s *jsonScanner) null() bool {
	if s.peek() == 'n' && s.hasPrefix("null") {
		s.pos += 4
		return true
	}
	return false
}

// str consumes a string and reports whether it holds escapes. Control
// bytes are refused; other bytes, invalid UTF-8 included, are taken.
func (s *jsonScanner) str() (escaped bool, err error) {
	if s.peek() != '"' {
		return false, s.fail("want a string")
	}
	d := s.data
	for i := s.pos + 1; i < len(d); {
		switch c := d[i]; {
		case c == '"':
			s.pos = i + 1
			return escaped, nil
		case c < ' ':
			s.pos = i
			return false, s.fail("control byte in string")
		case c == '\\':
			escaped = true
			if i+1 < len(d) {
				switch d[i+1] {
				case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
					i += 2
					continue
				case 'u':
					if i+6 <= len(d) && hex4(d[i+2:i+6]) >= 0 {
						i += 6
						continue
					}
				}
			}
			s.pos = i
			return false, s.fail("bad escape")
		default:
			i++
		}
	}
	s.pos = len(d)
	return false, s.fail("unterminated string")
}

// hex4 decodes four hex digits, or returns -1.
func hex4(b []byte) rune {
	var r rune
	for _, c := range b[:4] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return -1
		}
		r = r<<4 | rune(c)
	}
	return r
}

// memberName consumes a member name and returns the index of the name
// in names it matches as encoding/json matches a struct field, exactly
// and then under bytes.EqualFold (so "KEY" and "Key", with the
// Kelvin sign, are "key"), or -1.
func (s *jsonScanner) memberName(names []string) (int, error) {
	s.peek()
	start := s.pos + 1
	escaped, err := s.str()
	if err != nil {
		return -1, err
	}
	name := s.data[start : s.pos-1]
	if escaped {
		var ok bool
		if name, ok = unescape(s.name[:0], name); !ok {
			return -1, nil
		}
	}
	for i, n := range names {
		if string(name) == n {
			return i, nil
		}
	}
	for i, n := range names {
		if bytes.EqualFold(name, []byte(n)) {
			return i, nil
		}
	}
	return -1, nil
}

// unescape appends the string body src, already validated by str,
// with its escapes resolved as encoding/json resolves them (a lone
// surrogate becomes U+FFFD) to dst, and reports false rather than grow
// dst past its capacity: no name that long can match.
func unescape(dst, src []byte) ([]byte, bool) {
	for i := 0; i < len(src); {
		c := src[i]
		if c != '\\' {
			if len(dst) == cap(dst) {
				return dst, false
			}
			dst = append(dst, c)
			i++
			continue
		}
		if c = src[i+1]; c != 'u' {
			switch c {
			case 'b':
				c = '\b'
			case 'f':
				c = '\f'
			case 'n':
				c = '\n'
			case 'r':
				c = '\r'
			case 't':
				c = '\t'
			}
			if len(dst) == cap(dst) {
				return dst, false
			}
			dst = append(dst, c)
			i += 2
			continue
		}
		r := hex4(src[i+2:])
		i += 6
		if utf16.IsSurrogate(r) {
			r2 := rune(-1)
			if i+6 <= len(src) && src[i] == '\\' && src[i+1] == 'u' {
				r2 = hex4(src[i+2:])
			}
			if r = utf16.DecodeRune(r, r2); r != utf8.RuneError {
				i += 6
			}
		}
		if cap(dst)-len(dst) < utf8.RuneLen(r) {
			return dst, false
		}
		dst = utf8.AppendRune(dst, r)
	}
	return dst, true
}

// uint consumes a number that must be an unsigned integer below 2^64:
// a sign, fraction or exponent is refused, as encoding/json refuses
// them for a uint64 field. Up to 19 digits cannot overflow, so only a
// 20th is checked. Digits go eight to a round while eight remain
// within the first 19, then one at a time.
func (s *jsonScanner) uint() (uint64, error) {
	c := s.peek()
	if c < '0' || c > '9' {
		return 0, s.fail("want an unsigned integer")
	}
	d := s.data[s.pos:]
	v, i := uint64(c-'0'), 1
	if v != 0 {
		for i <= 19-8 && i+8 <= len(d) {
			w := binary.LittleEndian.Uint64(d[i:])
			if !eightDigits(w) {
				break
			}
			v = v*1e8 + parseEight(w)
			i += 8
		}
		for ; i < len(d) && i < 19 && isDigit(d[i]); i++ {
			v = v*10 + uint64(d[i]-'0')
		}
		if i == 19 && i < len(d) && isDigit(d[i]) {
			c := uint64(d[i] - '0')
			if v > (math.MaxUint64-c)/10 {
				return 0, s.fail("integer overflows 64 bits")
			}
			v = v*10 + c
			i++
		}
	}
	s.pos += i
	if i < len(d) && (isDigit(d[i]) || d[i] == '.' || d[i] == 'e' || d[i] == 'E') {
		return 0, s.fail("want an unsigned integer")
	}
	return v, nil
}

func (s *jsonScanner) bool() (bool, error) {
	switch s.peek() {
	case 't':
		return true, s.literal("true")
	case 'f':
		return false, s.literal("false")
	}
	return false, s.fail("want a boolean")
}

// number consumes any JSON number.
func (s *jsonScanner) number() error {
	d, i := s.data, s.pos
	if i < len(d) && d[i] == '-' {
		i++
	}
	switch {
	case i < len(d) && d[i] == '0':
		i++
	case i < len(d) && '1' <= d[i] && d[i] <= '9':
		i = digits(d, i)
	default:
		s.pos = i
		return s.fail("want a value")
	}
	if i < len(d) && d[i] == '.' {
		if i++; i == len(d) || !isDigit(d[i]) {
			s.pos = i
			return s.fail("want a digit")
		}
		i = digits(d, i)
	}
	if i < len(d) && (d[i] == 'e' || d[i] == 'E') {
		if i++; i < len(d) && (d[i] == '+' || d[i] == '-') {
			i++
		}
		if i == len(d) || !isDigit(d[i]) {
			s.pos = i
			return s.fail("want a digit")
		}
		i = digits(d, i)
	}
	s.pos = i
	return nil
}

func digits(d []byte, i int) int {
	for i < len(d) && isDigit(d[i]) {
		i++
	}
	return i
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

// eightDigits reports whether every byte of the little-endian word w
// is an ASCII digit: its high nibble is 3, and adding 6 does not carry
// out of its low nibble.
func eightDigits(w uint64) bool {
	const hi = 0xF0F0F0F0F0F0F0F0
	return w&hi|((w+0x0606060606060606)&hi)>>4 == 0x3333333333333333
}

// parseEight is the value of the eight ASCII digits in the
// little-endian word w, first byte most significant: three
// multiply-adds pair digits into 2-, then 4-, then 8-digit groups.
func parseEight(w uint64) uint64 {
	const mask = 0x000000FF000000FF
	w -= 0x3030303030303030
	w = w*10 + w>>8
	return ((w&mask)*(100+1000000<<32) + (w>>16&mask)*(1+10000<<32)) >> 32
}

// DecodeJSONKeys parses a {"key": k} or {"keys": [...]} body into req
// (the op comes from the route, not the body), reusing req.Keys. It
// enforces the same MaxWireBatch bound as the binary parser and
// rejects bodies with both, neither, or an empty key list.
func DecodeJSONKeys(op byte, data []byte, req *Request) error {
	_, err := decodeJSONKeys(op, data, req)
	return err
}

// decodeJSONKeys is DecodeJSONKeys that also reports the body's form:
// point is true for {"key": k} and false for {"keys": [...]}, whatever
// the list's length. The handlers answer in the form they were asked.
func decodeJSONKeys(op byte, data []byte, req *Request) (point bool, err error) {
	s := jsonScanner{data: data}
	var key uint64
	hasKey := false
	keys := jsonList[uint64]{buf: req.Keys[:0]}
	err = s.body(keysNames, func(field int) error {
		var err error
		switch field {
		case 0:
			if hasKey = !s.null(); hasKey {
				key, err = s.uint()
			}
		case 1:
			err = keys.decode(&s, func(k *uint64) (err error) {
				*k, err = s.uint()
				return err
			})
		default:
			err = s.skip(2)
		}
		return err
	})
	switch {
	case err != nil:
		return false, err
	case hasKey && keys.present:
		return false, fmt.Errorf(`%w: body has both "key" and "keys"`, ErrMalformed)
	case hasKey:
		req.Op, req.Keys = op, append(keys.buf[:0], key)
		return true, nil
	case keys.n > 0:
		req.Op, req.Keys = op, keys.buf[:keys.n]
		return false, nil
	}
	return false, fmt.Errorf(`%w: body needs "key" or a non-empty "keys"`, ErrMalformed)
}

// decodePutBody parses {"key": k, "value": v} or {"entries": [...]}
// into entries' backing array and returns the mutations.
func decodePutBody(data []byte, entries []lsm.Entry) ([]lsm.Entry, error) {
	s := jsonScanner{data: data}
	var key, value uint64
	hasKey := false
	list := jsonList[lsm.Entry]{buf: entries[:0]}
	err := s.body(putNames, func(field int) error {
		var err error
		switch field {
		case 0:
			if hasKey = !s.null(); hasKey {
				key, err = s.uint()
			}
		case 1:
			if !s.null() {
				value, err = s.uint()
			}
		case 2:
			err = list.decode(&s, func(e *lsm.Entry) error {
				return s.object(3, entryNames, func(field int) error {
					var err error
					switch field {
					case 0:
						if !s.null() {
							e.Key, err = s.uint()
						}
					case 1:
						if !s.null() {
							e.Value, err = s.uint()
						}
					case 2:
						if !s.null() {
							e.Tombstone, err = s.bool()
						}
					default:
						err = s.skip(4)
					}
					return err
				})
			})
		default:
			err = s.skip(2)
		}
		return err
	})
	switch {
	case err != nil:
		return nil, err
	case hasKey && !list.present:
		return append(list.buf[:0], lsm.Entry{Key: key, Value: value}), nil
	case !hasKey && list.n > 0:
		return list.buf[:list.n], nil
	}
	return nil, fmt.Errorf(`%w: body needs "key" or a non-empty "entries"`, ErrMalformed)
}

// jsonList is a list member ("keys", "entries") decoded the way
// encoding/json decodes into a slice it reuses: the last occurrence
// wins; null or [] drops the backing array; a null element leaves its
// slot as the backing array holds it, which is zero unless an earlier
// occurrence in the same body wrote it. buf[:hw] are the slots this
// body has written (the rest of buf is stale scratch), buf[:n] is the
// list.
type jsonList[T any] struct {
	buf     []T
	n, hw   int
	present bool // the member appeared last as a list, not null
}

// decode consumes the member's value, a list of at most MaxWireBatch
// elements at depth 2, calling elem to decode each non-null element in
// place.
func (l *jsonList[T]) decode(s *jsonScanner, elem func(*T) error) error {
	if l.present = !s.null(); !l.present {
		l.n, l.hw = 0, 0
		return nil
	}
	var err error
	l.n, err = s.array(2, func(i int) error {
		if i == MaxWireBatch {
			return fmt.Errorf("%w: list over %d entries", ErrTooLarge, MaxWireBatch)
		}
		if i == l.hw {
			var zero T
			l.buf = append(l.buf[:l.hw], zero)
			l.hw++
		}
		if s.null() {
			return nil
		}
		return elem(&l.buf[i])
	})
	if l.n == 0 {
		l.hw = 0
	}
	return err
}

// The replies are the bytes json.Encoder writes for the handlers' maps:
// members in sorted order, then a newline.

var okReply = []byte("{\"ok\":true}\n")

// appendContainsReply appends {"found":b} for a point request or
// {"found":[...]} for a list.
func appendContainsReply(dst []byte, point bool, found []bool) []byte {
	dst = appendBools(append(dst, `{"found":`...), point, found)
	return append(dst, "}\n"...)
}

// appendGetReply appends {"found":b,"value":v} for a point request or
// {"found":[...],"values":[...]} for a list.
func appendGetReply(dst []byte, point bool, found []bool, values []uint64) []byte {
	dst = appendBools(append(dst, `{"found":`...), point, found)
	if point {
		dst = strconv.AppendUint(append(dst, `,"value":`...), values[0], 10)
	} else {
		dst = append(dst, `,"values":[`...)
		for i, v := range values {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = strconv.AppendUint(dst, v, 10)
		}
		dst = append(dst, ']')
	}
	return append(dst, "}\n"...)
}

func appendBools(dst []byte, point bool, found []bool) []byte {
	if point {
		return strconv.AppendBool(dst, found[0])
	}
	dst = append(dst, '[')
	for i, ok := range found {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendBool(dst, ok)
	}
	return append(dst, ']')
}
