package main

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"
)

// conn is the generator's single keep-alive HTTP/1.1 connection. Each
// request is written whole from prebuilt bytes and its response read to
// the last body byte before the next one is sent (a closed loop), so
// the client adds no goroutines and no per-request formatting to the
// measured interval.
type conn struct {
	c  net.Conn
	br *bufio.Reader
}

func dial(addr string) (*conn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &conn{c: c, br: bufio.NewReaderSize(c, 64<<10)}, nil
}

func (c *conn) close() { c.c.Close() } //hanccr:allow discarderr nothing is buffered on the client side of the socket

// wire renders one POST as raw request bytes.
func wire(addr, path string, body []byte) []byte {
	head := fmt.Sprintf("POST %s HTTP/1.1\r\nHost: %s\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n", path, addr, len(body))
	return append([]byte(head), body...)
}

// reply is one answered request.
type reply struct {
	status int
	cache  string
	body   []byte
	// elapsed runs from the first byte written to the last body byte
	// read.
	elapsed time.Duration
}

// do sends one prebuilt request and reads its whole response.
func (c *conn) do(raw []byte) (reply, error) {
	start := time.Now()
	if _, err := c.c.Write(raw); err != nil {
		return reply{}, err
	}
	resp, err := http.ReadResponse(c.br, nil)
	if err != nil {
		return reply{}, err
	}
	body, err := io.ReadAll(resp.Body)
	elapsed := time.Since(start)
	resp.Body.Close() //hanccr:allow discarderr read-only response body, already drained
	if err != nil {
		return reply{}, err
	}
	return reply{status: resp.StatusCode, cache: resp.Header.Get("X-Cache"), body: body, elapsed: elapsed}, nil
}
