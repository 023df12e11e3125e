package main

import "testing"

func answer(pairs ...any) *neighborsAnswer {
	a := &neighborsAnswer{}
	for i := 0; i < len(pairs); i += 2 {
		a.Neighbors = append(a.Neighbors, neighbor{pairs[i].(int), pairs[i+1].(float64)})
	}
	return a
}

// The oracle comparison allows an exchange inside a tie and nothing else.
func TestMatchExact(t *testing.T) {
	full := []scored{{4, 1.5}, {2, 0.9}, {7, 0.9}, {1, 0.5}}
	for _, c := range []struct {
		name string
		ans  *neighborsAnswer
		ok   bool
	}{
		{"same order", answer(4, 1.5, 2, 0.9, 7, 0.9), true},
		{"tie exchanged", answer(4, 1.5, 7, 0.9, 2, 0.9), true},
		{"order differs", answer(2, 0.9, 4, 1.5, 7, 0.9), false},
		{"similarity off", answer(4, 1.5, 2, 0.9000001, 7, 0.9), false},
		{"unknown id", answer(4, 1.5, 2, 0.9, 9, 0.9), false},
		{"too short", answer(4, 1.5, 2, 0.9), false},
	} {
		if err := matchExact(c.ans, full, 3); (err == nil) != c.ok {
			t.Errorf("%s: matchExact err = %v, want ok=%v", c.name, err, c.ok)
		}
	}
}

// Recall counts members of the oracle's top k, ties at the k-th
// similarity included.
func TestRecallAt(t *testing.T) {
	full := []scored{{4, 1.5}, {2, 0.9}, {7, 0.9}, {1, 0.5}, {3, 0.1}}
	for _, c := range []struct {
		ids  []int
		want float64
	}{
		{[]int{4, 2}, 1}, {[]int{4, 7}, 1}, {[]int{4, 1}, 0.5}, {[]int{3, 1}, 0},
	} {
		if got := recallAt(c.ids, full, 2); got != c.want {
			t.Errorf("recallAt(%v) = %v, want %v", c.ids, got, c.want)
		}
	}
}

func TestSameClass(t *testing.T) {
	for _, c := range []struct {
		a, b string
		want bool
	}{{"C", "D", true}, {"D", "C", true}, {"C", "C", true}, {"A", "B", false}, {"D", "E", false}} {
		if got := sameClass(c.a, c.b); got != c.want {
			t.Errorf("sameClass(%s, %s) = %v", c.a, c.b, got)
		}
	}
}

// A workload's request list is a function of the seed and the run length.
func TestBuildWorkloadDeterministic(t *testing.T) {
	for _, name := range []string{"classify", "ingest", "mixed"} {
		a, err := buildWorkload(name, 7, 1)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := buildWorkload(name, 7, 1)
		if a.attempted() != b.attempted() || len(a.refs) != len(b.refs) {
			t.Fatalf("%s: sizes differ", name)
		}
		for c := range a.conns {
			for i, o := range a.conns[c] {
				p := b.conns[c][i]
				if o.kind != p.kind || o.id != p.id || (o.s == nil) != (p.s == nil) || (o.s != nil && o.s.text != p.s.text) {
					t.Fatalf("%s: op %d/%d differs", name, c, i)
				}
			}
		}
	}
}

// The reference library and the default-rerank probe are the same for
// every seed, the timed traffic is not, and a run attempts whole rounds:
// doubling the run length doubles both the probe rounds and the timed
// requests, so the probe's failed share does not depend on it.
func TestLibraryFixedTrafficSeeded(t *testing.T) {
	for _, name := range []string{"classify", "ingest", "mixed"} {
		a, err := buildWorkload(name, 1, 1)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := buildWorkload(name, 2, 1)
		for i := range a.refs {
			if a.refs[i].text != b.refs[i].text {
				t.Fatalf("%s: reference %d depends on the seed", name, i)
			}
		}
		for i := range a.annProbe {
			if a.annProbe[i].text != b.annProbe[i].text {
				t.Fatalf("%s: probe query %d depends on the seed", name, i)
			}
		}
		if a.conns[0][0].s.text == b.conns[0][0].s.text {
			t.Errorf("%s: first timed request does not depend on the seed", name)
		}
		long, _ := buildWorkload(name, 1, 2)
		if long.annRounds != 2*a.annRounds || long.attempted() != 2*a.attempted() {
			t.Errorf("%s: 2 s run has %d rounds and %d requests, 1 s run %d and %d",
				name, long.annRounds, long.attempted(), a.annRounds, a.attempted())
		}
	}
}
