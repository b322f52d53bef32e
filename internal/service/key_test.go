package service

import (
	"fmt"
	"testing"

	"repro/internal/fgraph"
	"repro/internal/p2p"
)

// keyCase is one service graph whose Key and String renderings are pinned.
type keyCase struct {
	name    string
	g       *Graph
	pattern string // g.Pattern.String()
	key     string // g.Key()
	str     string // g.String()
}

// assign maps every function of pattern to a component "p<peer>/<fn>.<i>"
// on peer 3*i+1.
func assign(pattern *fgraph.Graph) *Graph {
	g := &Graph{Pattern: pattern, Comps: make(map[int]Snapshot)}
	for i := 0; i < pattern.NumFunctions(); i++ {
		peer := 3*i + 1
		id := fmt.Sprintf("p%d/%s.%d", peer, pattern.Function(i), i)
		g.Comps[i] = Snapshot{Comp: Component{ID: id, Function: pattern.Function(i), Peer: p2p.NodeID(peer)}}
	}
	return g
}

func mustBuild(t testing.TB, b *fgraph.Builder) *fgraph.Graph {
	t.Helper()
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// keyCases returns the pinned fixtures: a single node, a chain, the swapped
// pattern of a DAG with a commutation link, and a twelve-function chain
// whose indices run to two digits. The expected strings were recorded from
// the fmt-based renderers this package used before and must never change:
// recovery and selection compare keys across the whole run.
func keyCases(t testing.TB) []keyCase {
	solo := fgraph.NewBuilder()
	solo.AddFunction("solo")

	dag := fgraph.NewBuilder()
	src := dag.AddFunction("src")
	enc := dag.AddFunction("enc")
	tick := dag.AddFunction("tick")
	capt := dag.AddFunction("cap")
	mux := dag.AddFunction("mux")
	dag.AddDependency(src, enc).AddDependency(enc, tick).AddDependency(tick, mux)
	dag.AddDependency(src, capt).AddDependency(capt, mux)
	dag.AddCommutation(enc, tick)
	patterns := mustBuild(t, dag).Patterns(0)
	if len(patterns) != 2 {
		t.Fatalf("commutation DAG has %d patterns, want 2", len(patterns))
	}

	long := make([]string, 12)
	for i := range long {
		long[i] = fmt.Sprintf("f%d", i)
	}

	return []keyCase{
		{
			name:    "single",
			g:       assign(mustBuild(t, solo)),
			pattern: "solo",
			key:     "solo|0=p1/solo.0;",
			str:     "solo→p1/solo.0",
		},
		{
			name:    "chain",
			g:       assign(fgraph.Linear("a", "b", "c")),
			pattern: "a->b b->c",
			key:     "a->b b->c|0=p1/a.0;1=p4/b.1;2=p7/c.2;",
			str:     "a→p1/a.0 b→p4/b.1 c→p7/c.2",
		},
		{
			name:    "dag-commuted",
			g:       assign(patterns[1]),
			pattern: "src->tick src->cap enc->mux tick->enc cap->mux",
			key:     "src->tick src->cap enc->mux tick->enc cap->mux|0=p1/src.0;1=p4/enc.1;2=p7/tick.2;3=p10/cap.3;4=p13/mux.4;",
			str:     "src→p1/src.0 enc→p4/enc.1 tick→p7/tick.2 cap→p10/cap.3 mux→p13/mux.4",
		},
		{
			name:    "twelve",
			g:       assign(fgraph.Linear(long...)),
			pattern: "f0->f1 f1->f2 f2->f3 f3->f4 f4->f5 f5->f6 f6->f7 f7->f8 f8->f9 f9->f10 f10->f11",
			key:     "f0->f1 f1->f2 f2->f3 f3->f4 f4->f5 f5->f6 f6->f7 f7->f8 f8->f9 f9->f10 f10->f11|0=p1/f0.0;1=p4/f1.1;2=p7/f2.2;3=p10/f3.3;4=p13/f4.4;5=p16/f5.5;6=p19/f6.6;7=p22/f7.7;8=p25/f8.8;9=p28/f9.9;10=p31/f10.10;11=p34/f11.11;",
			str:     "f0→p1/f0.0 f1→p4/f1.1 f2→p7/f2.2 f3→p10/f3.3 f4→p13/f4.4 f5→p16/f5.5 f6→p19/f6.6 f7→p22/f7.7 f8→p25/f8.8 f9→p28/f9.9 f10→p31/f10.10 f11→p34/f11.11",
		},
	}
}

// TestKeyFormatPinned compares Key, String and the pattern's String against
// renderings recorded before the renderers were rewritten without fmt.
func TestKeyFormatPinned(t *testing.T) {
	for _, c := range keyCases(t) {
		if got := c.g.Pattern.String(); got != c.pattern {
			t.Errorf("%s: Pattern.String() = %q, want %q", c.name, got, c.pattern)
		}
		if got := c.g.Key(); got != c.key {
			t.Errorf("%s: Key() = %q, want %q", c.name, got, c.key)
		}
		if got := c.g.String(); got != c.str {
			t.Errorf("%s: String() = %q, want %q", c.name, got, c.str)
		}
	}
	// Without a pattern the key is the assignment alone.
	bare := &Graph{Comps: keyCases(t)[1].g.Comps}
	if got, want := bare.Key(), "0=p1/a.0;1=p4/b.1;2=p7/c.2;"; got != want {
		t.Errorf("pattern-less Key() = %q, want %q", got, want)
	}
}

// TestKeyAllocs bounds Key's allocations: the index scratch, the byte
// buffer and the returned string. The fmt-based renderer needed one or more
// allocations per component and per dependency edge.
func TestKeyAllocs(t *testing.T) {
	for _, c := range keyCases(t) {
		g := c.g
		if n := testing.AllocsPerRun(100, func() { _ = g.Key() }); n > 3 {
			t.Errorf("%s: Key() makes %.0f allocations, want at most 3", c.name, n)
		}
	}
}
