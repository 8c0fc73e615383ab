package lifetime

import (
	"math/bits"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"mbavf/internal/dataflow"
	"mbavf/internal/interval"
)

// summaryGraph returns a solved graph of n versions with random live
// masks, about half of them read at a random cycle below horizon.
func summaryGraph(r *rand.Rand, n int, horizon interval.Cycle) *dataflow.Graph {
	g := dataflow.NewGraph()
	for i := 0; i < n; i++ {
		v := g.New(dataflow.TransferNone, 0)
		g.MarkRootLive(v, r.Uint32())
		if r.Intn(2) == 0 {
			g.NoteRead(v, interval.Cycle(r.Intn(int(horizon))))
		}
	}
	g.Solve()
	return g
}

// recordRandom drives random events over [from, to) into every slot of
// tr, naming versions below n.
func recordRandom(r *rand.Rand, tr *Tracker, n int, from, to interval.Cycle) {
	for w := 0; w < tr.Words(); w++ {
		for b := 0; b < tr.BytesPerWord(); b++ {
			for c := from + interval.Cycle(r.Intn(4)); c < to; c += 1 + interval.Cycle(r.Intn(6)) {
				switch r.Intn(4) {
				case 0:
					tr.Open(w, b, c, dataflow.VersionID(r.Intn(n)))
				case 1:
					tr.Read(w, b, c)
				case 2:
					tr.CloseClean(w, b, c)
				default:
					tr.CloseDirty(w, b, c)
				}
			}
		}
	}
}

// wantSummary recomputes a summary from the tracker's segments with the
// resolution rule spelled out, independently of Summary and Resolve.
func wantSummary(tr *Tracker, g *dataflow.Graph, wordVersions bool, horizon interval.Cycle) Summary {
	want := Summary{aceWords: make([]uint64, (tr.Words()+63)/64)}
	for w := 0; w < tr.Words(); w++ {
		for b := 0; b < tr.BytesPerWord(); b++ {
			for _, sg := range tr.Segments(w, b) {
				end := min(sg.End, horizon)
				ace := sg.Kind == SegACE || sg.Kind == SegPending && g.ReadAfter(sg.Version, sg.End)
				if end <= sg.Start || !ace {
					continue
				}
				vb := 0
				if wordVersions {
					vb = b
				}
				live := g.LiveByte(sg.Version, vb)
				want.BitUarch += 8 * (end - sg.Start)
				want.BitLive += interval.Cycle(bits.OnesCount8(live)) * (end - sg.Start)
				want.aceWords[w/64] |= 1 << (w % 64)
			}
		}
	}
	return want
}

func requireSummary(t *testing.T, label string, got *Summary, want Summary) {
	t.Helper()
	if got.BitUarch != want.BitUarch || got.BitLive != want.BitLive {
		t.Errorf("%s: numerators (%d, %d), want (%d, %d)", label, got.BitUarch, got.BitLive, want.BitUarch, want.BitLive)
	}
	if !slices.Equal(got.aceWords, want.aceWords) {
		t.Errorf("%s: ACE words %x, want %x", label, got.aceWords, want.aceWords)
	}
}

// TestSummaryMemo pins the summary's lifetime: an unfinished tracker
// resolves on every call and keeps nothing, a finished one keeps one
// summary per (graph, version granularity, horizon) and rebuilds it when
// any of them changes, and every summary matches the segments resolved
// by hand.
func TestSummaryMemo(t *testing.T) {
	const words, bpw, versions = 70, 4, 40
	const horizon = interval.Cycle(200)
	r := rand.New(rand.NewSource(11))
	g1 := summaryGraph(r, versions, horizon)
	g2 := summaryGraph(r, versions, horizon)
	tr := NewTracker(words, bpw)

	recordRandom(r, tr, versions, 0, horizon/2)
	early := tr.Summary(g1, false, horizon)
	requireSummary(t, "unfinished", early, wantSummary(tr, g1, false, horizon))
	if again := tr.Summary(g1, false, horizon); again == early {
		t.Error("unfinished tracker kept its summary")
	}
	recordRandom(r, tr, versions, horizon/2, horizon)
	late := tr.Summary(g1, false, horizon)
	requireSummary(t, "unfinished after more recording", late, wantSummary(tr, g1, false, horizon))
	if late.BitUarch == early.BitUarch {
		t.Fatal("recording more added no ACE time; the test shows nothing")
	}

	tr.Finish(horizon)
	s := tr.Summary(g1, false, horizon)
	requireSummary(t, "finished", s, wantSummary(tr, g1, false, horizon))
	if tr.Summary(g1, false, horizon) != s {
		t.Error("finished tracker rebuilt its summary for the same key")
	}
	for _, k := range []struct {
		label        string
		g            *dataflow.Graph
		wordVersions bool
		horizon      interval.Cycle
	}{
		{"second graph", g2, false, horizon},
		{"shorter horizon", g2, false, horizon / 3},
		{"word versions", g2, true, horizon / 3},
		{"first key again", g1, false, horizon},
	} {
		next := tr.Summary(k.g, k.wordVersions, k.horizon)
		if next == s {
			t.Errorf("%s: summary not rebuilt", k.label)
		}
		requireSummary(t, k.label, next, wantSummary(tr, k.g, k.wordVersions, k.horizon))
		if tr.Summary(k.g, k.wordVersions, k.horizon) != next {
			t.Errorf("%s: rebuilt summary not kept", k.label)
		}
		s = next
	}
}

// TestSummaryConcurrentFirstTouch has 8 goroutines ask one adopted
// tracker for its summary at once: all must get the one summary built,
// and under -race the build is checked to be serialized.
func TestSummaryConcurrentFirstTouch(t *testing.T) {
	const words, bpw, versions = 64, 4, 50
	const horizon = interval.Cycle(300)
	r := rand.New(rand.NewSource(12))
	g := summaryGraph(r, versions, horizon)
	rec := NewTracker(words, bpw)
	recordRandom(r, rec, versions, 0, horizon)
	rec.Finish(horizon)
	segs := make([][]Seg, words*bpw)
	for i := range segs {
		segs[i] = rec.Segments(i/bpw, i%bpw)
	}
	tr, err := Adopt(words, bpw, segs)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]*Summary, 8)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			got[i] = tr.Summary(g, true, horizon)
		}()
	}
	close(start)
	wg.Wait()
	for i, s := range got {
		if s != got[0] {
			t.Fatalf("goroutine %d got another summary: built more than once", i)
		}
	}
	requireSummary(t, "adopted", got[0], wantSummary(tr, g, true, horizon))
}
