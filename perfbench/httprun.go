package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"
)

// reply is what one timed request produced.
type reply struct {
	op         op
	start, end time.Duration // since the timed phase began
	err        error         // transport error or unexpected status
	label      string        // classify and stream verdicts
	ids        []int         // neighbours returned
	added      int           // id assigned by an add, or removed by a delete
}

// connState is one connection's view of the corpus it mutated.
type connState struct {
	added      []int // id of the connection's n-th add, -1 if it failed
	unlabelled []addedTrace
	labelled   int
}

type addedTrace struct {
	id int
	s  *sample
}

// httpRun is one workload driven against one server over HTTP.
type httpRun struct {
	w       *workload
	bin     string
	dir     string // run directory: data dirs and server logs
	data    string // live data directory
	srv     *server
	c       *client
	replies [][]reply
	states  []*connState
	wall    time.Duration // timed phase, the sum of its slices
	steal   float64       // share of CPU time stolen during it
	rss     []float64     // server resident set samples during it, MiB
	before  map[string]float64
	after   map[string]float64
}

func (h *httpRun) serverArgs(data string) []string {
	args := []string{"-data-dir", data}
	if h.w.snapshotEvery > 0 {
		args = append(args, "-snapshot-every", strconv.Itoa(h.w.snapshotEvery))
	}
	if h.w.shards > 1 {
		args = append(args, "-shards", strconv.Itoa(h.w.shards))
	}
	return args
}

// setup starts the server the timed phase runs against on an empty data
// directory and prefills it. It returns the set-up's wall time and the
// share of CPU time stolen meanwhile.
func (h *httpRun) setup() (time.Duration, float64, error) {
	if h.srv != nil {
		h.srv.kill()
		h.c.close()
	}
	h.data = filepath.Join(h.dir, "data")
	srv, c, took, steal, err := h.prefill(h.data)
	h.srv, h.c = srv, c
	return took, steal, err
}

// sideSetup times one more set-up on a second server and data directory,
// then kills that server and removes its directory. The server the timed
// phase runs against stays up, idle, meanwhile.
func (h *httpRun) sideSetup() (time.Duration, float64, error) {
	data := filepath.Join(h.dir, "side")
	srv, c, took, steal, err := h.prefill(data)
	if c != nil {
		c.close()
	}
	if srv != nil {
		srv.kill()
	}
	if err != nil {
		return 0, 0, err
	}
	return took, steal, os.RemoveAll(data)
}

// prefill starts a server on the empty data directory data and prefills
// it: the references in batches through POST /traces/batch, then one
// POST /labels. It returns the wall time from exec to a ready, labelled
// corpus and the share of CPU time stolen meanwhile. The server, once
// started, is returned even on error so that the caller can kill it.
func (h *httpRun) prefill(data string) (*server, *client, time.Duration, float64, error) {
	if err := os.RemoveAll(data); err != nil {
		return nil, nil, 0, 0, err
	}
	clk, err := startClock()
	if err != nil {
		return nil, nil, 0, 0, err
	}
	srv, err := startServer(h.bin, filepath.Join(h.dir, "server.log"), h.serverArgs(data)...)
	if err != nil {
		return nil, nil, 0, 0, err
	}
	c := newClient(srv.addr)
	fail := func(err error) (*server, *client, time.Duration, float64, error) { return srv, c, 0, 0, err }
	var labels []map[string]any
	for lo := 0; lo < len(h.w.refs); lo += prefillBatch {
		hi := min(lo+prefillBatch, len(h.w.refs))
		texts := make([]string, 0, hi-lo)
		for _, s := range h.w.refs[lo:hi] {
			texts = append(texts, s.text)
		}
		body, _ := json.Marshal(map[string]any{"traces": texts})
		var ans struct {
			Traces []struct{ ID int } `json:"traces"`
		}
		if err := c.call("POST", "/traces/batch", body, http.StatusCreated, &ans); err != nil {
			return fail(err)
		}
		for i, t := range ans.Traces {
			if t.ID != lo+i {
				return fail(fmt.Errorf("prefill: trace %d got id %d", lo+i, t.ID))
			}
			labels = append(labels, map[string]any{"id": t.ID, "label": string(h.w.refs[lo+i].cat)})
		}
	}
	body, _ := json.Marshal(map[string]any{"labels": labels})
	if err := c.call("POST", "/labels", body, http.StatusOK, nil); err != nil {
		return fail(err)
	}
	took, steal, err := clk.stop()
	return srv, c, took, steal, err
}

// warmup sends untimed read-only queries so connections, page cache and
// allocator reach their steady state before the clock starts.
func (h *httpRun) warmup() error {
	for i := 0; i < 8; i++ {
		q := h.w.queries[i%len(h.w.queries)]
		if err := h.c.call("POST", "/similar?k=10", []byte(q.text), http.StatusOK, nil); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}
	return nil
}

// timedSlices is the number of slices the timed request list is sent
// in. Between two slices the caller times a set-up on a second server, so
// the timed phase samples the host over most of the run instead of one
// stretch of it.
const timedSlices = 4

// timed runs every connection's op list closed-loop, in timedSlices
// slices, and records replies. between runs after every slice but the
// last, with no request in flight; its time is not timed. Reply times
// are measured from the start of the first slice.
func (h *httpRun) timed(between func() error) error {
	var err error
	if h.before, err = h.c.metrics(); err != nil {
		return err
	}
	h.replies = make([][]reply, len(h.w.conns))
	h.states = make([]*connState, len(h.w.conns))
	for ci, list := range h.w.conns {
		h.states[ci] = &connState{}
		h.replies[ci] = make([]reply, len(list))
	}
	t0 := time.Now()
	var stolen float64
	for sl := 0; sl < timedSlices; sl++ {
		if sl > 0 && between != nil {
			if err := between(); err != nil {
				return err
			}
		}
		clk, err := startClock()
		if err != nil {
			return err
		}
		stopRSS := h.srv.sampleRSS()
		var wg sync.WaitGroup
		for ci, list := range h.w.conns {
			lo, hi := len(list)*sl/timedSlices, len(list)*(sl+1)/timedSlices
			wg.Add(1)
			go func(ci int, list []op) {
				defer wg.Done()
				st := h.states[ci]
				for i, o := range list {
					r := &h.replies[ci][lo+i]
					r.op = o
					r.start = time.Since(t0)
					h.send(st, r)
					r.end = time.Since(t0)
				}
			}(ci, list[lo:hi])
		}
		wg.Wait()
		wall, steal, err := clk.stop()
		rss, rerr := stopRSS()
		if err == nil {
			err = rerr
		}
		if err != nil {
			return err
		}
		h.rss = append(h.rss, rss...)
		h.wall += wall
		stolen += steal * wall.Seconds()
	}
	h.steal = stolen / h.wall.Seconds()
	h.after, err = h.c.metrics()
	return err
}

// send performs one op, filling r.
func (h *httpRun) send(st *connState, r *reply) {
	o := r.op
	var ans neighborsAnswer
	switch o.kind {
	case kClassify:
		if r.err = h.c.call("POST", "/classify?k=10", []byte(o.s.text), http.StatusOK, &ans); r.err == nil {
			r.label, r.ids = ans.Label, ans.ids()
		}
	case kSimilarID:
		if r.err = h.c.call("GET", fmt.Sprintf("/similar?id=%d&k=10", o.id), nil, http.StatusOK, &ans); r.err == nil {
			r.ids = ans.ids()
		}
	case kAdd:
		var a struct{ ID int }
		if r.err = h.c.call("POST", "/traces", []byte(o.s.text), http.StatusCreated, &a); r.err != nil {
			a.ID = -1
		} else {
			st.unlabelled = append(st.unlabelled, addedTrace{a.ID, o.s})
		}
		r.added = a.ID
		st.added = append(st.added, a.ID)
	case kLabels:
		ls := make([]map[string]any, 0, len(st.unlabelled))
		for _, a := range st.unlabelled {
			ls = append(ls, map[string]any{"id": a.id, "label": string(a.s.cat)})
		}
		body, _ := json.Marshal(map[string]any{"labels": ls})
		if r.err = h.c.call("POST", "/labels", body, http.StatusOK, nil); r.err == nil {
			st.labelled += len(st.unlabelled)
			st.unlabelled = st.unlabelled[:0]
		}
	case kDelete:
		if r.added = st.added[-o.id-1]; r.added < 0 {
			r.err = fmt.Errorf("delete: the add it targets failed")
			return
		}
		r.err = h.c.call("DELETE", fmt.Sprintf("/traces/%d", r.added), nil, http.StatusOK, nil)
	}
}

// labelPending labels, in one untimed request, the adds no timed
// POST /labels covered.
func (h *httpRun) labelPending() error {
	var ls []map[string]any
	for _, st := range h.states {
		for _, a := range st.unlabelled {
			ls = append(ls, map[string]any{"id": a.id, "label": string(a.s.cat)})
		}
	}
	if len(ls) == 0 {
		return nil
	}
	body, _ := json.Marshal(map[string]any{"labels": ls})
	if err := h.c.call("POST", "/labels", body, http.StatusOK, nil); err != nil {
		return err
	}
	for _, st := range h.states {
		st.labelled += len(st.unlabelled)
		st.unlabelled = nil
	}
	return nil
}

// kindStats summarises the timed replies of each kind.
type kindStats struct {
	attempted, failed int
	lat               []float64 // ms, successful requests only
}

func (h *httpRun) byKind() [nKinds]kindStats {
	var out [nKinds]kindStats
	for _, rs := range h.replies {
		for _, r := range rs {
			ks := &out[r.op.kind]
			ks.attempted++
			if r.err != nil {
				ks.failed++
				continue
			}
			ks.lat = append(ks.lat, float64(r.end-r.start)/float64(time.Millisecond))
		}
	}
	return out
}

func (h *httpRun) firstErr() error {
	for _, rs := range h.replies {
		for _, r := range rs {
			if r.err != nil {
				return r.err
			}
		}
	}
	return nil
}
