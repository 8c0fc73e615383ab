package lifetime

import (
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"

	"mbavf/internal/dataflow"
	"mbavf/internal/interval"
)

// Tracker operations a recorded event stream mixes; opCheck compares
// every slot with the reference mid-recording.
const (
	opOpen = iota
	opRead
	opCloseClean
	opCloseDirty
	opFinish
	opCheck
	numOps
)

// pair drives a paged Tracker and the reference tracker through the
// same event stream.
type pair struct {
	t     *testing.T
	got   *Tracker
	want  *refTracker
	cycle interval.Cycle
	// seals bounds the mid-stream Finish and check operations, each of
	// which seals everything recorded so far, so that a stream of them
	// stays linear.
	seals int
}

func newPair(t *testing.T, words, bpw int) *pair {
	return &pair{t: t, got: NewTracker(words, bpw), want: newRefTracker(words, bpw), seals: 64}
}

// apply advances the clock by dt and applies op to slot (word, b) of
// both trackers.
func (p *pair) apply(op int, word, b int, dt interval.Cycle, ver dataflow.VersionID) {
	p.cycle += dt
	if op == opFinish || op == opCheck {
		if p.seals == 0 {
			return
		}
		p.seals--
	}
	switch op {
	case opOpen:
		p.got.Open(word, b, p.cycle, ver)
		p.want.Open(word, b, p.cycle, ver)
	case opRead:
		p.got.Read(word, b, p.cycle)
		p.want.Read(word, b, p.cycle)
	case opCloseClean:
		p.got.CloseClean(word, b, p.cycle)
		p.want.CloseClean(word, b, p.cycle)
	case opCloseDirty:
		p.got.CloseDirty(word, b, p.cycle)
		p.want.CloseDirty(word, b, p.cycle)
	case opFinish:
		p.finish(0)
	case opCheck:
		p.check("mid-recording")
	}
}

// finish advances the clock by dt and finishes both trackers. A
// finished tracker has sealed its whole log and dropped its pages, so
// later reads find nothing to seal.
func (p *pair) finish(dt interval.Cycle) {
	p.t.Helper()
	p.cycle += dt
	p.got.Finish(p.cycle)
	p.want.Finish(p.cycle)
	if p.got.pages != nil || p.got.sealed.Load() != p.got.logged {
		p.t.Fatalf("Finish left %d log pages, %d of %d records sealed", len(p.got.pages), p.got.sealed.Load(), p.got.logged)
	}
}

// check compares every slot's segments and the segment count with the
// reference, and that each sealed slot is capacity-bounded so an append
// by a caller cannot clobber the next slot in the arena.
func (p *pair) check(when string) {
	p.t.Helper()
	for w := 0; w < p.want.words; w++ {
		for b := 0; b < p.want.bytesPerWord; b++ {
			got, want := p.got.Segments(w, b), p.want.Segments(w, b)
			if !slices.Equal(got, want) {
				p.t.Fatalf("%s at cycle %d: slot (%d,%d) segments\n got %v\nwant %v", when, p.cycle, w, b, got, want)
			}
			if cap(got) != len(got) {
				p.t.Fatalf("%s: slot (%d,%d) has cap %d > len %d", when, w, b, cap(got), len(got))
			}
		}
	}
	if got, want := p.got.SegmentCount(), p.want.SegmentCount(); got != want {
		p.t.Fatalf("%s: SegmentCount %d, want %d", when, got, want)
	}
}

// TestTrackerMatchesReference drives random event streams through the
// paged tracker and the per-slot-append reference: Open/Read/CloseClean/
// CloseDirty with Finish and Segments calls mixed in, over several
// structure shapes, each stream long enough to fill several log pages.
func TestTrackerMatchesReference(t *testing.T) {
	shapes := []struct{ words, bpw int }{{1, 1}, {3, 2}, {64, 4}, {300, 8}}
	for seed := int64(1); seed <= 8; seed++ {
		sh := shapes[seed%int64(len(shapes))]
		r := rand.New(rand.NewSource(seed))
		p := newPair(t, sh.words, sh.bpw)
		for p.got.logged < 4*logPageRecs+17 {
			var op int
			switch x := r.Intn(1000); {
			case x < 350:
				op = opOpen
			case x < 800:
				op = opRead
			case x < 890:
				op = opCloseClean
			case x < 995:
				op = opCloseDirty
			case x < 997:
				op = opFinish
			default:
				op = opCheck
			}
			p.apply(op, r.Intn(sh.words), r.Intn(sh.bpw), interval.Cycle(r.Intn(4)), dataflow.VersionID(r.Intn(1<<20)))
		}
		p.check("before Finish")
		p.finish(1)
		p.check("after Finish")
		// Finish is terminal for held state: another Finish adds nothing.
		p.finish(5)
		p.check("after a second Finish")
	}
}

// FuzzTrackerRecording replays a fuzzed program of tracker events
// against the reference. The program's first two bytes pick the
// structure shape; each following byte pair is one event (operation and
// slot, then clock advance and version). The program repeats until the
// recording has spanned several log pages, or a bound on events for
// programs that close few segments.
func FuzzTrackerRecording(f *testing.F) {
	f.Add([]byte{3, 1, 0, 9, 6, 17, 1, 33, 12, 2, 3, 200, 30, 5, 4, 1})
	f.Add([]byte{7, 3, 6, 0, 1, 1, 7, 2, 13, 3, 19, 4, 25, 5, 31, 8, 8, 9, 10, 11, 3, 3})
	f.Add([]byte{0, 0, 0, 1, 1, 2, 3, 3, 4, 0})
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) < 4 {
			return
		}
		words, bpw := int(prog[0]%8)+1, int(prog[1]%4)+1
		prog = prog[2:]
		p := newPair(t, words, bpw)
		const maxEvents = 1 << 16
		events := 0
		for rep := 0; p.got.logged <= 3*logPageRecs && events < maxEvents; rep++ {
			for i := 0; i+1 < len(prog); i += 2 {
				a, c := prog[i], prog[i+1]
				slot := int(a/numOps) % (words * bpw)
				p.apply(int(a%numOps), slot/bpw, slot%bpw, interval.Cycle(c&7), dataflow.VersionID(rep<<5|int(c>>3)))
				events++
			}
		}
		p.check("end of program")
		p.finish(1)
		p.check("after Finish")
	})
}

// TestAdoptAllocatesNoRecordingState pins that adopting decoded segments
// costs the tracker header alone: the run-artifact decoder adopts
// cache-sized trackers on every decode and never records into them.
func TestAdoptAllocatesNoRecordingState(t *testing.T) {
	const words, bpw, runs = 4096, 64, 8 // the default L2: 262144 byte slots
	segs := make([][]Seg, words*bpw)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if _, err := Adopt(words, bpw, segs); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / runs; per > 1024 {
		t.Errorf("Adopt of a %dx%d tracker allocates %d bytes; want only the tracker header", words, bpw, per)
	}
}

// TestConcurrentReaders reads a finished tracker, an adopted one, and an
// unfinished one with segments still in its log from several goroutines
// at once, all starting on the unfinished one; run under -race it checks
// that finished and adopted trackers are read without writes, and that
// the lazy seals of concurrent first readers are serialized.
func TestConcurrentReaders(t *testing.T) {
	const words, bpw = 256, 8
	r := rand.New(rand.NewSource(7))
	finished, pending := newPair(t, words, bpw), newPair(t, words, bpw)
	for pending.got.logged < 16*logPageRecs {
		op := []int{opOpen, opRead, opRead, opCloseClean, opCloseDirty}[r.Intn(5)]
		w, b, dt, ver := r.Intn(words), r.Intn(bpw), interval.Cycle(1+r.Intn(3)), dataflow.VersionID(r.Intn(1000))
		finished.apply(op, w, b, dt, ver)
		pending.apply(op, w, b, dt, ver)
	}
	finished.finish(1)
	segs := make([][]Seg, words*bpw)
	for i := range segs {
		segs[i] = slices.Clone(finished.want.segs[i])
	}
	adopted, err := Adopt(words, bpw, segs)
	if err != nil {
		t.Fatal(err)
	}
	readers := []struct {
		name string
		got  *Tracker
		want *refTracker
	}{
		{"unfinished", pending.got, pending.want},
		{"finished", finished.got, finished.want},
		{"adopted", adopted, finished.want},
	}
	start := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan string, 64)
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for _, rd := range readers {
				if rd.got.SegmentCount() != rd.want.SegmentCount() {
					errs <- rd.name + ": SegmentCount differs"
					return
				}
				for w := 0; w < words; w++ {
					for b := 0; b < bpw; b++ {
						if !slices.Equal(rd.got.Segments(w, b), rd.want.Segments(w, b)) {
							errs <- rd.name + ": segments differ"
							return
						}
					}
				}
			}
		}()
	}
	close(start)
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}
