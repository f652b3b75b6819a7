package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"strconv"
	"time"
)

// httpConn is a minimal HTTP/1.1 keep-alive client over one TCP
// connection: one write and one buffered read per request, no
// goroutines and no allocation at steady state, so the generator's own
// cost stays small beside the server's (loadgen.self_us_per_req
// reports it). It understands exactly what net/http servers send:
// Content-Length or chunked bodies.
type httpConn struct {
	c    net.Conn
	br   *bufio.Reader
	out  []byte
	body []byte
}

func dialHTTP(addr string) (*httpConn, error) {
	c, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	return &httpConn{c: c, br: bufio.NewReaderSize(c, 64<<10)}, nil
}

func (h *httpConn) close() { h.c.Close() }

// do sends one request and returns the status and body; the body is
// valid until the next call. An empty body sends a GET.
func (h *httpConn) do(path, contentType string, body []byte) (int, []byte, error) {
	h.out = h.out[:0]
	if len(body) == 0 {
		h.out = append(h.out, "GET "...)
	} else {
		h.out = append(h.out, "POST "...)
	}
	h.out = append(h.out, path...)
	h.out = append(h.out, " HTTP/1.1\r\nHost: bench\r\n"...)
	if len(body) > 0 {
		h.out = append(h.out, "Content-Type: "...)
		h.out = append(h.out, contentType...)
		h.out = append(h.out, "\r\nContent-Length: "...)
		h.out = strconv.AppendInt(h.out, int64(len(body)), 10)
		h.out = append(h.out, "\r\n"...)
	}
	h.out = append(h.out, "\r\n"...)
	h.out = append(h.out, body...)
	// A request that outlives this deadline is a transport failure, not
	// a hang of the whole benchmark.
	h.c.SetDeadline(time.Now().Add(30 * time.Second))
	if _, err := h.c.Write(h.out); err != nil {
		return 0, nil, err
	}
	return h.readResponse()
}

func (h *httpConn) readLine() ([]byte, error) {
	line, err := h.br.ReadSlice('\n')
	if err != nil {
		return nil, err
	}
	return bytes.TrimRight(line, "\r\n"), nil
}

func (h *httpConn) readResponse() (int, []byte, error) {
	line, err := h.readLine()
	if err != nil {
		return 0, nil, err
	}
	// "HTTP/1.1 200 OK"
	if len(line) < 12 || !bytes.HasPrefix(line, []byte("HTTP/1.")) {
		return 0, nil, fmt.Errorf("bad status line %q", line)
	}
	status, err := strconv.Atoi(string(line[9:12]))
	if err != nil {
		return 0, nil, fmt.Errorf("bad status line %q", line)
	}
	length, chunked := -1, false
	for {
		line, err = h.readLine()
		if err != nil {
			return 0, nil, err
		}
		if len(line) == 0 {
			break
		}
		colon := bytes.IndexByte(line, ':')
		if colon < 0 {
			return 0, nil, fmt.Errorf("bad header line %q", line)
		}
		name, value := line[:colon], bytes.TrimSpace(line[colon+1:])
		switch {
		case bytes.EqualFold(name, []byte("Content-Length")):
			if length, err = strconv.Atoi(string(value)); err != nil {
				return 0, nil, fmt.Errorf("bad Content-Length %q", value)
			}
		case bytes.EqualFold(name, []byte("Transfer-Encoding")):
			chunked = bytes.EqualFold(value, []byte("chunked"))
		}
	}
	h.body = h.body[:0]
	switch {
	case chunked:
		for {
			if line, err = h.readLine(); err != nil {
				return 0, nil, err
			}
			size, err := strconv.ParseUint(string(line), 16, 31)
			if err != nil {
				return 0, nil, fmt.Errorf("bad chunk size %q", line)
			}
			if err := h.readBody(int(size)); err != nil {
				return 0, nil, err
			}
			if line, err = h.readLine(); err != nil || len(line) != 0 {
				return 0, nil, fmt.Errorf("bad chunk terminator %q: %v", line, err)
			}
			if size == 0 {
				return status, h.body, nil
			}
		}
	case length >= 0:
		if err := h.readBody(length); err != nil {
			return 0, nil, err
		}
		return status, h.body, nil
	}
	return 0, nil, fmt.Errorf("response has neither Content-Length nor chunked encoding")
}

// readBody appends n bytes of the response to h.body.
func (h *httpConn) readBody(n int) error {
	at := len(h.body)
	if cap(h.body) < at+n {
		h.body = append(h.body[:cap(h.body)], make([]byte, at+n-cap(h.body))...)
	}
	h.body = h.body[:at+n]
	_, err := io.ReadFull(h.br, h.body[at:])
	return err
}
