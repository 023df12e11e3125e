package main

import (
	"bytes"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"iokast/internal/core"
	"iokast/internal/token"
)

// simTol bounds the difference between a server similarity and the
// oracle's. Kast and NaiveKast agree bit for bit on every pair (the fuzz
// oracle asserts it), so the tolerance only absorbs the order in which
// the cosine's square root and division are taken.
const simTol = 1e-9

// minRecall is the README's ANN contract: recall@10 at the default
// rerank against the exact ranking.
const minRecall = 0.9

// model is the benchmark's own record of the live corpus: what it sent
// and what the server acknowledged, never what the server reports.
type model struct {
	live    map[int]*sample
	deleted map[int]time.Duration // id -> when its delete was acknowledged
	labels  int                   // acknowledged labelled live traces
}

func newModel(h *httpRun) (*model, error) {
	m := &model{live: map[int]*sample{}, deleted: map[int]time.Duration{}}
	for i, s := range h.w.refs {
		m.live[i] = s
	}
	m.labels = len(h.w.refs)
	for ci, rs := range h.replies {
		for _, r := range rs {
			if r.err != nil {
				continue
			}
			switch r.op.kind {
			case kAdd:
				m.live[r.added] = r.op.s
			case kDelete:
				if _, ok := m.live[r.added]; !ok {
					return nil, fmt.Errorf("delete of id %d acknowledged twice", r.added)
				}
				delete(m.live, r.added)
				m.deleted[r.added] = r.end
				m.labels--
			}
		}
		m.labels += h.states[ci].labelled
	}
	return m, nil
}

// oracle is the brute-force k-NN reference: core.NaiveKast, the kernel's
// executable specification, cosine-normalised over the live corpus.
type oracle struct {
	k    *core.NaiveKast
	m    *model
	self map[int]float64
}

func newOracle(m *model) *oracle {
	o := &oracle{k: &core.NaiveKast{CutWeight: 2}, m: m, self: map[int]float64{}}
	for id, s := range m.live {
		x := s.convert()
		o.self[id] = o.k.Compare(x, x)
	}
	return o
}

type scored struct {
	id  int
	sim float64
}

// rank scores q against every live entry except exclude, best first,
// ties by ascending id (the server's order).
func (o *oracle) rank(q token.String, qself float64, exclude int) []scored {
	out := make([]scored, 0, len(o.m.live))
	for id, s := range o.m.live {
		if id == exclude {
			continue
		}
		v := o.k.Compare(q, s.convert())
		if d := qself * o.self[id]; d > 0 {
			v /= math.Sqrt(d)
		} else {
			v = 0
		}
		out = append(out, scored{id, v})
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].sim != out[b].sim {
			return out[a].sim > out[b].sim
		}
		return out[a].id < out[b].id
	})
	return out
}

// matchExact checks a covering-rerank answer against the oracle ranking:
// the same ids in order (an exchange inside a tie within simTol is
// allowed) and every similarity within simTol.
func matchExact(ans *neighborsAnswer, full []scored, k int) error {
	want := min(k, len(full))
	if len(ans.Neighbors) != want {
		return fmt.Errorf("%d neighbours, oracle has %d", len(ans.Neighbors), want)
	}
	simOf := make(map[int]float64, len(full))
	for _, s := range full {
		simOf[s.id] = s.sim
	}
	for i, n := range ans.Neighbors {
		osim, ok := simOf[n.ID]
		if !ok {
			return fmt.Errorf("rank %d: id %d is not a live trace", i, n.ID)
		}
		if math.Abs(n.Similarity-osim) > simTol {
			return fmt.Errorf("rank %d: id %d similarity %.17g, oracle %.17g", i, n.ID, n.Similarity, osim)
		}
		if n.ID != full[i].id && math.Abs(osim-full[i].sim) > simTol {
			return fmt.Errorf("rank %d: id %d (%.17g), oracle id %d (%.17g)", i, n.ID, osim, full[i].id, full[i].sim)
		}
	}
	return nil
}

// recallAt is the share of the answer's ids that belong to the oracle's
// top k, counting ties at the k-th similarity as members.
func recallAt(ids []int, full []scored, k int) float64 {
	k = min(k, len(full))
	if k == 0 {
		return 1
	}
	cut := full[k-1].sim - simTol
	top := map[int]bool{}
	for _, s := range full {
		if s.sim < cut {
			break
		}
		top[s.id] = true
	}
	hits := 0
	for _, id := range ids {
		if top[id] {
			hits++
		}
	}
	return float64(hits) / float64(k)
}

// checker collects check failures; any failure makes the run incorrect.
type checker struct{ fails []string }

func (c *checker) failf(format string, args ...any) {
	if len(c.fails) < 20 {
		c.fails = append(c.fails, fmt.Sprintf(format, args...))
	}
}

func (c *checker) err() error {
	if len(c.fails) == 0 {
		return nil
	}
	return fmt.Errorf("%d check(s) failed:\n  %s", len(c.fails), strings.Join(c.fails, "\n  "))
}

// checkTimed applies the checks that need only the timed replies: no
// answer sent after a delete was acknowledged names the deleted id. It
// also returns the share of timed default-rerank verdicts that name the
// query's class, which is reported, not checked: a wrong verdict there
// comes from the ANN shortlist (see probeANN) and turns up for one query
// in 1,600 on some seeds only, so as a check it would pass or fail by
// seed. probeANN checks the same rule on fixed queries every run.
func checkTimed(h *httpRun, m *model, ck *checker) (accuracy float64) {
	right, verdicts := 0, 0
	for _, rs := range h.replies {
		for _, r := range rs {
			if r.err != nil {
				continue
			}
			if r.op.kind == kClassify {
				verdicts++
				if sameClass(r.label, string(r.op.s.cat)) {
					right++
				} else {
					fmt.Fprintf(os.Stderr, "perfbench: /classify of a %s trace answered %q at the default rerank\n", r.op.s.cat, r.label)
				}
			}
			for _, id := range r.ids {
				if at, ok := m.deleted[id]; ok && r.start > at {
					ck.failf("%s sent after id %d was deleted returned it", r.op.kind, id)
				}
			}
		}
	}
	if verdicts == 0 {
		return 1
	}
	return float64(right) / float64(verdicts)
}

// checkBattery runs the post-phase checks against the live server: the
// add-then-delete probe, the oracle and the class rule at covering rerank
// for query traces, and the oracle for stored ids.
func checkBattery(h *httpRun, m *model, ck *checker) error {
	probeID, err := checkProbe(h, m, ck)
	if err != nil {
		return err
	}
	m.deleted[probeID] = 0
	o := newOracle(m)
	cover := len(m.live) + 1
	for _, q := range h.w.queries {
		x := q.convert()
		full := o.rank(x, o.k.Compare(x, x), -1)
		var exact neighborsAnswer
		if err := h.c.call("POST", fmt.Sprintf("/similar?k=10&rerank=%d", cover), []byte(q.text), http.StatusOK, &exact); err != nil {
			return err
		}
		if err := matchExact(&exact, full, 10); err != nil {
			ck.failf("POST /similar (%s query) at covering rerank vs oracle: %v", q.cat, err)
		}
		checkNotDeleted(m, "POST /similar", exact.ids(), ck)
		var verdict neighborsAnswer
		if err := h.c.call("POST", fmt.Sprintf("/classify?k=10&rerank=%d", cover), []byte(q.text), http.StatusOK, &verdict); err != nil {
			return err
		}
		if !sameClass(verdict.Label, string(q.cat)) {
			ck.failf("/classify at covering rerank of a %s trace answered %q", q.cat, verdict.Label)
		}
	}
	for _, id := range h.w.byID {
		s := m.live[id]
		full := o.rank(s.convert(), o.self[id], id)
		var ans neighborsAnswer
		if err := h.c.call("GET", fmt.Sprintf("/similar?id=%d&k=10", id), nil, http.StatusOK, &ans); err != nil {
			return err
		}
		if err := matchExact(&ans, full, 10); err != nil {
			ck.failf("GET /similar?id=%d vs oracle: %v", id, err)
		}
	}
	return nil
}

// annResult is what the default-rerank probe found.
type annResult struct {
	rounds, failed int
	recall         float64 // mean recall@10 of the probe queries
	rightClass     int     // probe verdicts of one round naming the query's class
}

// probeANN checks the default-rerank (ANN) path on the fixed library
// right after set-up: each round sends every fixed probe query to
// POST /similar?k=10 and POST /classify?k=10, both at the default
// rerank. A round fails unless the mean recall@10 against the oracle is
// at least minRecall and every verdict names the query's class. Library
// and queries do not depend on --seed and the sketch is deterministic,
// so every round of every run must get the same answers (a difference is
// a failed check) and a failure counts the same share of the run's
// operations. One round is sent per nominal
// second, so that share does not depend on the run length either.
func probeANN(h *httpRun, ck *checker) (*annResult, error) {
	m := &model{live: map[int]*sample{}}
	for i, s := range h.w.refs {
		m.live[i] = s
	}
	o := newOracle(m)
	full := make([][]scored, len(h.w.annProbe))
	for i, q := range h.w.annProbe {
		x := q.convert()
		full[i] = o.rank(x, o.k.Compare(x, x), -1)
	}
	r := &annResult{rounds: h.w.annRounds}
	for round := 0; round < r.rounds; round++ {
		recall, right := 0.0, 0
		var misses []string
		for i, q := range h.w.annProbe {
			var ans, verdict neighborsAnswer
			if err := h.c.call("POST", "/similar?k=10", []byte(q.text), http.StatusOK, &ans); err != nil {
				return nil, err
			}
			recall += recallAt(ans.ids(), full[i], 10)
			if err := h.c.call("POST", "/classify?k=10", []byte(q.text), http.StatusOK, &verdict); err != nil {
				return nil, err
			}
			if sameClass(verdict.Label, string(q.cat)) {
				right++
			} else {
				misses = append(misses, fmt.Sprintf("%s answered %q", q.cat, verdict.Label))
			}
		}
		recall /= float64(len(h.w.annProbe))
		pass := recall >= minRecall && len(misses) == 0
		if !pass {
			r.failed++
		}
		if round == 0 {
			r.recall, r.rightClass = recall, right
			if !pass {
				fmt.Fprintf(os.Stderr, "perfbench: default-rerank probe failed: recall@10 %.3f (want >= %.2f), %d/%d verdicts of the right class %v\n",
					recall, minRecall, right, len(h.w.annProbe), misses)
			}
		} else if recall != r.recall || right != r.rightClass {
			ck.failf("default-rerank probe round %d answered differently from round 0 (recall %.3f vs %.3f)", round, recall, r.recall)
		}
	}
	return r, nil
}

// checkProbe adds a fresh trace, finds it in an exact query for itself
// with similarity 1, deletes it and checks it is gone from query and
// by-id answers. (Its own best match it need not be: the Kast kernel is
// not positive semi-definite, so cosine-normalised values above 1 occur.)
func checkProbe(h *httpRun, m *model, ck *checker) (int, error) {
	var a struct{ ID int }
	if err := h.c.call("POST", "/traces", []byte(h.w.probe.text), http.StatusCreated, &a); err != nil {
		return 0, err
	}
	cover := len(m.live) + 2
	var ans neighborsAnswer
	path := fmt.Sprintf("/similar?k=%d&rerank=%d", cover, cover)
	if err := h.c.call("POST", path, []byte(h.w.probe.text), http.StatusOK, &ans); err != nil {
		return 0, err
	}
	found := false
	for _, n := range ans.Neighbors {
		found = found || (n.ID == a.ID && n.Similarity == 1)
	}
	if !found || len(ans.Neighbors) != len(m.live)+1 {
		ck.failf("exact query for probe trace %d: found=%v among %d answers, want %d", a.ID, found, len(ans.Neighbors), len(m.live)+1)
	}
	if err := h.c.call("DELETE", fmt.Sprintf("/traces/%d", a.ID), nil, http.StatusOK, nil); err != nil {
		return 0, err
	}
	if err := h.c.call("POST", path, []byte(h.w.probe.text), http.StatusOK, &ans); err != nil {
		return 0, err
	}
	for _, id := range ans.ids() {
		if id == a.ID {
			ck.failf("deleted probe %d still answered", a.ID)
		}
	}
	if st, _, err := h.c.do("GET", fmt.Sprintf("/similar?id=%d&k=10", a.ID), nil); err != nil || st != http.StatusNotFound {
		ck.failf("GET /similar?id=%d of a deleted trace: status %d, err %v", a.ID, st, err)
	}
	return a.ID, nil
}

func checkNotDeleted(m *model, what string, ids []int, ck *checker) {
	for _, id := range ids {
		if _, ok := m.deleted[id]; ok {
			ck.failf("%s returned deleted id %d", what, id)
		}
	}
}

// durability is the crash check: the answers the benchmark samples
// before SIGKILL, compared after each restart.
type durability struct {
	live    int
	labels  int
	byID    map[int][]byte
	deleted []int
}

func snapshotAnswers(h *httpRun, m *model) (*durability, error) {
	d := &durability{live: len(m.live), labels: m.labels, byID: map[int][]byte{}}
	for id := range m.deleted {
		d.deleted = append(d.deleted, id)
	}
	sort.Ints(d.deleted)
	for _, id := range h.w.byID {
		st, b, err := h.c.do("GET", fmt.Sprintf("/similar?id=%d&k=10", id), nil)
		if err != nil || st != http.StatusOK {
			return nil, fmt.Errorf("GET /similar?id=%d: status %d: %v", id, st, err)
		}
		d.byID[id] = b
	}
	return d, nil
}

// verifyRecovered checks a restarted server against the answers taken
// before the kill: the live count equals acknowledged adds minus
// acknowledged deletes, by-id answers are byte-identical, deleted ids
// stay deleted and the label count survives.
func verifyRecovered(c *client, d *durability, ck *checker) error {
	var hz struct{ Traces int }
	if err := c.call("GET", "/healthz", nil, http.StatusOK, &hz); err != nil {
		return err
	}
	if hz.Traces != d.live {
		ck.failf("after restart %d live traces, acknowledged %d", hz.Traces, d.live)
	}
	ids := make([]int, 0, len(d.byID))
	for id := range d.byID {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		st, b, err := c.do("GET", fmt.Sprintf("/similar?id=%d&k=10", id), nil)
		if err != nil {
			return err
		}
		if st != http.StatusOK || !bytes.Equal(b, d.byID[id]) {
			ck.failf("after restart GET /similar?id=%d differs from before the kill", id)
		}
	}
	for _, id := range d.deleted {
		if st, _, err := c.do("GET", fmt.Sprintf("/similar?id=%d&k=10", id), nil); err != nil || st != http.StatusNotFound {
			ck.failf("after restart deleted id %d answers status %d", id, st)
		}
	}
	var lb struct{ Labeled int }
	if err := c.call("GET", "/labels", nil, http.StatusOK, &lb); err != nil {
		return err
	}
	if lb.Labeled != d.labels {
		ck.failf("after restart %d labelled traces, acknowledged %d", lb.Labeled, d.labels)
	}
	return nil
}

// recoverOnce restarts a server on a fresh copy of the killed data
// directory (so every restart replays the same WAL, never a snapshot the
// previous restart wrote) and returns the wall time from exec to the
// first correct answer and the share of CPU time stolen meanwhile, with
// the server still running.
func (h *httpRun) recoverOnce(pristine string, n int, d *durability, ck *checker) (time.Duration, float64, *server, error) {
	dir := filepath.Join(h.dir, fmt.Sprintf("recover-%d", n))
	if err := copyDir(pristine, dir); err != nil {
		return 0, 0, nil, err
	}
	clk, err := startClock()
	if err != nil {
		return 0, 0, nil, err
	}
	srv, err := startServer(h.bin, filepath.Join(h.dir, "server.log"), h.serverArgs(dir)...)
	if err != nil {
		return 0, 0, nil, err
	}
	c := newClient(srv.addr)
	defer c.close()
	id := h.w.byID[0]
	st, b, err := c.do("GET", fmt.Sprintf("/similar?id=%d&k=10", id), nil)
	took, steal, cerr := clk.stop()
	if cerr != nil {
		return 0, 0, srv, cerr
	}
	if err != nil || st != http.StatusOK || !bytes.Equal(b, d.byID[id]) {
		ck.failf("first answer after restart: status %d, err %v, same=%v", st, err, bytes.Equal(b, d.byID[id]))
	}
	return took, steal, srv, verifyRecovered(c, d, ck)
}
