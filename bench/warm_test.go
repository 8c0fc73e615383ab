package main

import (
	"math/rand"
	"testing"

	"mbavf"
	"mbavf/internal/serve"
)

// TestDealBalance checks serve-warm's query streams: the two clients
// split the query space between them exactly, and every 8 consecutive
// queries of a stream cover the 8 (structure, style) pairs.
func TestDealBalance(t *testing.T) {
	space := strata(servePrograms, mbavf.Structures(), queryModes)
	rng := rand.New(rand.NewSource(5))
	shuffleStrata(rng, space)
	seen := map[serve.AVFQuery]int{}
	for c := range warmClients {
		s := deal(rng, space, len(servePrograms), c)
		for i, q := range s {
			seen[q]++
			if i%8 != 0 || i+8 > len(s) {
				continue
			}
			pairs := map[string]bool{}
			for _, p := range s[i : i+8] {
				pairs[p.Structure+"/"+p.Style] = true
			}
			if len(pairs) != 8 {
				t.Fatalf("client %d: queries %d..%d cover %d (structure, style) pairs, want 8", c, i, i+7, len(pairs))
			}
		}
	}
	if len(seen) != 2304 {
		t.Fatalf("streams hold %d distinct queries, want the 2304-point space", len(seen))
	}
	for q, n := range seen {
		if n != 1 {
			t.Fatalf("query %+v dealt %d times", q, n)
		}
	}
}

// TestDrawNeverWraps checks that a client's stream of unique queries
// ends instead of starting over, which would turn misses into hits.
func TestDrawNeverWraps(t *testing.T) {
	c := &warmClient{avf: make([]serve.AVFQuery, 10), ser: make([]serve.AVFQuery, 4)}
	if q, ok := c.draw(batchSize); !ok || len(q) != batchSize {
		t.Fatalf("first batch: %d queries, ok %v", len(q), ok)
	}
	if _, ok := c.draw(batchSize); ok {
		t.Fatal("a batch past the end of the stream was drawn")
	}
	if q, ok := c.draw(2); !ok || len(q) != 2 {
		t.Fatalf("last two queries: %d, ok %v", len(q), ok)
	}
	if _, ok := c.draw(1); ok {
		t.Fatal("a query past the end of the stream was drawn")
	}
	if u := c.used(); u != 1 {
		t.Fatalf("used %v of an exhausted stream, want 1", u)
	}
}
