package main

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"mbavf/internal/obs"
)

// span is one complete ("X") event of a Chrome trace; times are in
// microseconds.
type span struct {
	Name  string
	Tid   int
	Start float64
	Dur   float64
}

// parseSpans extracts the complete spans of a Chrome trace document as
// obs.TraceJSON writes it. Async and metadata events carry no duration
// and are skipped.
func parseSpans(data []byte) ([]span, error) {
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Ts   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
			Tid  int     `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("parsing trace: %w", err)
	}
	var out []span
	for _, e := range doc.TraceEvents {
		if e.Ph == "X" {
			out = append(out, span{Name: e.Name, Tid: e.Tid, Start: e.Ts, Dur: e.Dur})
		}
	}
	return out, nil
}

// spanStat is the total and self time (µs) of every span sharing a
// name, with their count.
type spanStat struct {
	Count int
	Total float64
	Self  float64
}

// selfTimes returns, per span name, the total duration and the self
// time: duration minus the part covered by spans nested inside it on
// the same trace tid. Spans on other tids (a batch handler's fan-out
// goroutines, a server answering a client) are never subtracted, so
// their parents keep the time they spent waiting.
func selfTimes(spans []span) map[string]*spanStat {
	byTid := map[int][]span{}
	for _, s := range spans {
		byTid[s.Tid] = append(byTid[s.Tid], s)
	}
	out := map[string]*spanStat{}
	for _, list := range byTid {
		// Parents sort before the children they enclose: earlier start
		// first, and the longer span first on a tie.
		sort.Slice(list, func(i, j int) bool {
			if list[i].Start != list[j].Start {
				return list[i].Start < list[j].Start
			}
			return list[i].Dur > list[j].Dur
		})
		self := make([]float64, len(list))
		var open []int // indices of enclosing spans, innermost last
		for i, s := range list {
			self[i] = s.Dur
			for len(open) > 0 {
				p := list[open[len(open)-1]]
				if p.Start+p.Dur > s.Start {
					break
				}
				open = open[:len(open)-1]
			}
			if len(open) > 0 {
				p := list[open[len(open)-1]]
				covered := min(s.Start+s.Dur, p.Start+p.Dur) - s.Start
				self[open[len(open)-1]] -= covered
			}
			open = append(open, i)
		}
		for i, s := range list {
			st := out[s.Name]
			if st == nil {
				st = &spanStat{}
				out[s.Name] = st
			}
			st.Count++
			st.Total += s.Dur
			st.Self += self[i]
		}
	}
	return out
}

// layerOf maps a span name to the layer that records it: the program's
// own "exp:", "analyze:", "simulate:", "http:" and "campaign:" spans,
// and the benchmark's "bench:" spans around each operation.
func layerOf(name string) string {
	prefix, _, _ := strings.Cut(name, ":")
	switch prefix {
	case "exp":
		return "experiments"
	case "analyze":
		return "core"
	case "simulate":
		return "sim"
	case "http":
		return "serve"
	case "campaign":
		return "inject"
	case "bench":
		return "bench"
	}
	return "other"
}

// layerTimes sums span statistics by layer.
func layerTimes(stats map[string]*spanStat) map[string]*spanStat {
	out := map[string]*spanStat{}
	for name, st := range stats {
		l := layerOf(name)
		if out[l] == nil {
			out[l] = &spanStat{}
		}
		out[l].Count += st.Count
		out[l].Total += st.Total
		out[l].Self += st.Self
	}
	return out
}

// whereRow is one line of a "where the time goes" table: a layer's self
// time in seconds and its share of all rows' time.
type whereRow struct {
	Layer string  `json:"layer"`
	Spans int     `json:"spans"`
	SelfS float64 `json:"self_s"`
	Share float64 `json:"share"`
}

// whereTimeGoes splits the traced time across the layers: each layer's
// row is its spans' self time, and the "bench" row is the part of the
// benchmark's operation spans that no program span covers (client-side
// work, transport). A client span's self time also holds its wait for
// a server answering on another goroutine, so the bench row is capped
// at the operations' total minus every program span's self time.
// Spans running at once on several goroutines (a batch request's
// fan-out) each count their wall time, waiting for a CPU included, so a
// layer's share is of summed span time, not of elapsed time.
func whereTimeGoes(stats map[string]*spanStat) []whereRow {
	layers := layerTimes(stats)
	var rows []whereRow
	inside, sum := 0.0, 0.0
	for l, st := range layers {
		if l == "bench" {
			continue
		}
		inside += st.Self
		rows = append(rows, whereRow{Layer: l, Spans: st.Count, SelfS: st.Self / 1e6})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].SelfS > rows[j].SelfS })
	if b := layers["bench"]; b != nil {
		rows = append(rows, whereRow{Layer: "bench", Spans: b.Count, SelfS: max(min(b.Self, b.Total-inside), 0) / 1e6})
	}
	for _, r := range rows {
		sum += r.SelfS
	}
	for i := range rows {
		if sum > 0 {
			rows[i].Share = rows[i].SelfS / sum
		}
	}
	return rows
}

// histQuantiles returns the p50 and p99 of each named histogram, in the
// histogram's own unit (upper bounds of its power-of-two buckets).
func histQuantiles(hists []obs.HistSnapshot) map[string][2]uint64 {
	out := map[string][2]uint64{}
	for _, h := range hists {
		out[h.Name] = [2]uint64{h.Quantile(0.50), h.Quantile(0.99)}
	}
	return out
}
