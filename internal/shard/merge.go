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

// mergeGroup accumulates one group across shard partials.
type mergeGroup struct {
	codes []uint32      // grouping-key dictionary codes (dicts shared with base)
	vals  []table.Value // visible aggregate values, merged
	first int64         // global first-appearance row (min of shard minima)
}

// merge combines the surviving shards' per-set partials into final result
// tables, byte-identical to unsharded execution: group keys are matched by
// dictionary code (partitions share the base dictionaries), aggregates merge
// by kind, and groups are emitted in global first-appearance order.
func (c *Coordinator) merge(req engine.Request, own map[colset.Set][]exec.Agg, outs []outcome, okIdx []int) (map[colset.Set]*table.Table, error) {
	merged := make(map[colset.Set]*table.Table, len(req.Sets))
	var keyBuf []byte
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
			}
			for r := 0; r < rt.NumRows(); r++ {
				keyBuf = keyBuf[:0]
				for k := 0; k < nk; k++ {
					code := rt.Col(k).Code(r)
					keyBuf = append(keyBuf, byte(code), byte(code>>8), byte(code>>16), byte(code>>24))
				}
				first := rt.Col(nk + na).Value(r).I
				g, ok := byKey[string(keyBuf)]
				if !ok {
					g = &mergeGroup{codes: make([]uint32, nk), vals: make([]table.Value, na), first: first}
					for k := 0; k < nk; k++ {
						g.codes[k] = rt.Col(k).Code(r)
					}
					for j := 0; j < na; j++ {
						g.vals[j] = rt.Col(nk + j).Value(r)
					}
					byKey[string(keyBuf)] = g
					groups = append(groups, g)
					continue
				}
				for j := 0; j < na; j++ {
					g.vals[j] = mergeValue(aggs[j].Kind, g.vals[j], rt.Col(nk+j).Value(r))
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

		outCols := make([]*table.Column, 0, nk+na)
		for k := 0; k < nk; k++ {
			oc := proto.Col(k).EmptyLike(proto.Col(k).Name())
			for _, g := range groups {
				oc.AppendCode(g.codes[k])
			}
			outCols = append(outCols, oc)
		}
		for j := 0; j < na; j++ {
			src := proto.Col(nk + j)
			oc := table.NewColumn(table.ColumnDef{Name: src.Name(), Typ: src.Type()})
			for _, g := range groups {
				oc.Append(g.vals[j])
			}
			outCols = append(outCols, oc)
		}
		merged[set] = table.FromColumns(proto.Name(), outCols)
	}
	return merged, nil
}

// mergeValue combines two shard partials of one aggregate. NULL handling
// mirrors the accumulators: COUNTs are never NULL, SUM/MIN/MAX skip NULL
// partials (a partial is NULL only when every contributing value was NULL, so
// the merged value is NULL only when all shards' were).
func mergeValue(kind exec.AggKind, a, b table.Value) table.Value {
	switch kind {
	case exec.AggCountStar, exec.AggCount:
		return table.Int(a.I + b.I)
	case exec.AggSum:
		if a.Null {
			return b
		}
		if b.Null {
			return a
		}
		if a.Typ == table.TFloat64 {
			return table.Float(a.F + b.F)
		}
		return table.Int(a.I + b.I)
	case exec.AggMin:
		if a.Null {
			return b
		}
		if b.Null {
			return a
		}
		if b.Compare(a) < 0 {
			return b
		}
		return a
	case exec.AggMax:
		if a.Null {
			return b
		}
		if b.Null {
			return a
		}
		if b.Compare(a) > 0 {
			return b
		}
		return a
	}
	panic(fmt.Sprintf("shard: unmergeable aggregate kind %v", kind))
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
