package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"iokast/internal/load"
)

// client talks to one server over loopback HTTP with keep-alive
// connections, at most one per closed-loop connection.
type client struct {
	base string
	hc   *http.Client
}

func newClient(base string) *client {
	tr := &http.Transport{MaxIdleConnsPerHost: conns, MaxConnsPerHost: conns + 1, DisableCompression: true}
	return &client{base: base, hc: &http.Client{Transport: tr, Timeout: 60 * time.Second}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// do sends one request and returns the status and the whole body.
func (c *client) do(method, path string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// call sends a request, requires status want, and decodes the JSON answer
// into out (when non-nil).
func (c *client) call(method, path string, body []byte, want int, out any) error {
	st, b, err := c.do(method, path, body)
	if err != nil {
		return fmt.Errorf("%s %s: %w", method, path, err)
	}
	if st != want {
		return fmt.Errorf("%s %s: status %d, want %d: %s", method, path, st, want, bytes.TrimSpace(b))
	}
	if out != nil {
		if err := json.Unmarshal(b, out); err != nil {
			return fmt.Errorf("%s %s: decode: %w", method, path, err)
		}
	}
	return nil
}

func (c *client) metrics() (map[string]float64, error) {
	return load.ScrapeMetrics(context.Background(), c.base)
}

// neighborsAnswer is the shape shared by /similar and /classify answers.
type neighborsAnswer struct {
	Label      string     `json:"label"`
	Confidence float64    `json:"confidence"`
	Neighbors  []neighbor `json:"neighbors"`
}

type neighbor struct {
	ID         int     `json:"id"`
	Similarity float64 `json:"similarity"`
}

func (a *neighborsAnswer) ids() []int {
	out := make([]int, len(a.Neighbors))
	for i, n := range a.Neighbors {
		out[i] = n.ID
	}
	return out
}

// sumFamily adds up every series of a metric family (all label sets).
func sumFamily(m map[string]float64, name string) float64 {
	s := 0.0
	for k, v := range m {
		if k == name || strings.HasPrefix(k, name+"{") {
			s += v
		}
	}
	return s
}
