package shard

import (
	"fmt"
	"sort"

	"gbmqo/internal/colset"
	"gbmqo/internal/engine"
	"gbmqo/internal/exec"
	"gbmqo/internal/fault"
	"gbmqo/internal/table"
)

// The ordering technique: unsharded results list groups in global
// first-appearance row order. Each shard partition carries the hidden
// RowColumn (global row indexes, ascending within a shard), and every
// grouping set's shard sub-request carries the hidden MIN(RowColumn)
// aggregate — so each shard partial reports, per group, the global row where
// that group first appears in the shard. MIN rolls up losslessly through any
// plan shape (intermediates, shared scans, cube/rollup covers), the merge
// takes the minimum across shards, and sorting merged groups by it
// reconstructs the exact global first-appearance order. The hidden column is
// stripped before results are emitted.

// shardRequest derives the per-shard sub-request: each grouping set's own
// aggregates (explicit per-set list, request default, or COUNT(*)) plus the
// hidden MIN(RowColumn), with the coordinator owning all resilience — shard
// engines run single attempts, uncached. The returned map holds each set's
// own (visible) aggregates for the merge.
func (c *Coordinator) shardRequest(req engine.Request, ti tableInfo) (engine.Request, map[colset.Set][]exec.Agg) {
	own := make(map[colset.Set][]exec.Agg, len(req.Sets))
	per := make(map[colset.Set][]exec.Agg, len(req.Sets))
	hidden := exec.Agg{Kind: exec.AggMin, Col: ti.rowOrd, Name: FirstAgg}
	for _, s := range req.Sets {
		o := req.AggsFor(s)
		own[s] = o
		aug := make([]exec.Agg, len(o), len(o)+1)
		copy(aug, o)
		per[s] = append(aug, hidden)
	}
	sub := req
	sub.PerSetAggs = per
	sub.Retry = fault.Policy{}
	sub.UseCache = false
	sub.AllowPartial = false
	return sub, own
}

// mergeGroup is one group gathered across shard partials: its index in the
// aggregate mergers, its grouping-key codes (dicts shared with base), and its
// global first-appearance row (min of shard minima).
type mergeGroup struct {
	id    int
	codes []uint32
	first int64
}

// merge combines the surviving shards' per-set partials into final result
// tables, byte-identical to unsharded execution: group keys are matched by
// dictionary code (partitions share the base dictionaries), aggregates merge
// by kind through exec.AggMerger, and groups are emitted in global
// first-appearance order.
func (c *Coordinator) merge(req engine.Request, own map[colset.Set][]exec.Agg, outs []outcome, okIdx []int) (map[colset.Set]*table.Table, error) {
	merged := make(map[colset.Set]*table.Table, len(req.Sets))
	for _, set := range req.Sets {
		if _, done := merged[set]; done {
			continue
		}
		nk := set.Len()
		aggs := own[set]
		na := len(aggs)
		byKey := make(map[string]*mergeGroup)
		var groups []*mergeGroup
		var proto *table.Table
		var mergers []*exec.AggMerger
		for _, si := range okIdx {
			rt := outs[si].res.Report.Results[set]
			if rt == nil {
				return nil, fmt.Errorf("shard: shard %d returned no result for set %v", si, set)
			}
			if rt.NumCols() != nk+na+1 {
				return nil, fmt.Errorf("shard: shard %d result for set %v has %d columns, want %d", si, set, rt.NumCols(), nk+na+1)
			}
			if proto == nil {
				proto = rt
				bound := 0 // every shard's groups distinct
				for _, sj := range okIdx {
					if r := outs[sj].res.Report.Results[set]; r != nil {
						bound += r.NumRows()
					}
				}
				mergers = make([]*exec.AggMerger, na)
				for j, a := range aggs {
					mergers[j] = exec.NewAggMerger(a.Kind, rt.Col(nk+j), bound)
				}
			}
			// A row's group key is its key columns' codes, which lead the
			// row in the result's image.
			img, stride := rt.RowImage()
			for r := 0; r < rt.NumRows(); r++ {
				key := img[r*stride : r*stride+4*nk]
				first := rt.Col(nk + na).Value(r).I
				g, ok := byKey[string(key)]
				if !ok {
					g = &mergeGroup{id: len(groups), codes: make([]uint32, nk), first: first}
					for k := 0; k < nk; k++ {
						g.codes[k] = rt.Col(k).Code(r)
					}
					for j, m := range mergers {
						m.Add(rt.Col(nk+j), r)
					}
					byKey[string(key)] = g
					groups = append(groups, g)
					continue
				}
				for j, m := range mergers {
					m.Merge(g.id, rt.Col(nk+j), r)
				}
				if first < g.first {
					g.first = first
				}
			}
		}
		if proto == nil {
			return nil, fmt.Errorf("shard: no surviving shard produced set %v", set)
		}
		sort.SliceStable(groups, func(a, b int) bool { return groups[a].first < groups[b].first })

		b := table.NewBuilder(proto.Name(), len(groups), nk+na)
		for k := 0; k < nk; k++ {
			c := b.Like(proto.Col(k), proto.Col(k).Name())
			for i, g := range groups {
				b.Set(i, c, g.codes[k])
			}
		}
		order := make([]int, len(groups))
		for i, g := range groups {
			order[i] = g.id
		}
		for j, m := range mergers {
			m.Column(b, proto.Col(nk+j).Name(), order)
		}
		merged[set] = b.Table()
	}
	return merged, nil
}

// foldReports sums the surviving shards' execution reports into the gather's:
// scan and query work add up, peaks sum pessimistically (shards run
// concurrently), degradations and kernel attributions concatenate in shard
// order, and every requested set is attributed OriginComputed.
func foldReports(req engine.Request, outs []outcome, okIdx []int) *engine.ExecReport {
	rep := &engine.ExecReport{Attempts: 1}
	for _, i := range okIdx {
		r := outs[i].res.Report
		rep.RowsScanned += r.RowsScanned
		rep.QueriesRun += r.QueriesRun
		rep.TempTables += r.TempTables
		rep.PeakTempBytes += r.PeakTempBytes
		rep.ParallelOps += r.ParallelOps
		if r.MaxWorkers > rep.MaxWorkers {
			rep.MaxWorkers = r.MaxWorkers
		}
		rep.MergeTime += r.MergeTime
		rep.PeakMem += r.PeakMem
		rep.SpillFallbacks += r.SpillFallbacks
		rep.Degradations = append(rep.Degradations, r.Degradations...)
		rep.Kernels = append(rep.Kernels, r.Kernels...)
		rep.RehashesAvoided += r.RehashesAvoided
	}
	rep.Origins = make(map[colset.Set]engine.SetOrigin, len(req.Sets))
	for _, s := range req.Sets {
		rep.Origins[s] = engine.OriginComputed
	}
	return rep
}
