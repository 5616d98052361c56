package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"gbmqo/internal/colset"
	"gbmqo/internal/exec"
	"gbmqo/internal/plan"
	"gbmqo/internal/table"
)

// executeParallel runs the schedule's per-sub-plan segments concurrently.
// Schedule emits each sub-plan's steps contiguously, and sub-plans share no
// intermediates (grouping sets are unique across the plan), so each segment
// runs in an isolated planRun — except the governor and memory budget, which
// are shared so cancellation stops every segment and PeakMem reflects true
// concurrent usage. The base table's scan image is forced before fan-out
// because its lazy construction is the only shared mutable state.
func (ex *Executor) executeParallel(template *planRun, p *plan.Plan, steps []plan.Step, opts ExecOptions) (*ExecReport, error) {
	template.base.RowImage()
	segments, err := splitByRoot(steps)
	if err != nil {
		return template.fail(err)
	}

	type result struct {
		report *ExecReport
		err    error
	}
	results := make([]result, len(segments))
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	start := time.Now()
	for i, seg := range segments {
		wg.Add(1)
		go func(i int, seg []plan.Step) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			run := &planRun{
				ex:        ex,
				base:      template.base,
				aggs:      template.aggs,
				par:       template.par,
				gov:       template.gov,
				budget:    template.budget,
				size:      template.size,
				ndv:       template.ndv,
				promote:   template.promote,
				perSet:    template.perSet,
				nodeAggs:  template.nodeAggs,
				temps:     map[colset.Set]*table.Table{},
				tempBytes: map[colset.Set]int64{},
				tempAggs:  map[colset.Set][]exec.Agg{},
				skipped:   map[colset.Set]bool{},
				report:    &ExecReport{Results: map[colset.Set]*table.Table{}},
			}
			// A panic inside this segment must not kill the process: recover
			// it here (the sequential path's boundary recover lives in
			// ExecutePlanWith, which this goroutine escapes) and convert it to
			// the same typed error, releasing the segment's temps either way.
			defer func() {
				if pnc := recover(); pnc != nil {
					run.releaseAll()
					results[i] = result{report: run.report, err: &exec.ExecError{
						Step: run.curStep, Err: exec.RecoveredPanic(pnc)}}
				}
			}()
			err := runSteps(run, seg, opts)
			if err != nil {
				run.releaseAll()
			}
			results[i] = result{report: run.report, err: err}
		}(i, seg)
	}
	wg.Wait()

	merged := template.report
	var firstErr error
	for _, res := range results {
		if res.err != nil && firstErr == nil {
			firstErr = res.err
		}
		if res.report == nil {
			continue
		}
		merged.RowsScanned += res.report.RowsScanned
		merged.QueriesRun += res.report.QueriesRun
		merged.TempTables += res.report.TempTables
		merged.PeakTempBytes += res.report.PeakTempBytes
		merged.ParallelOps += res.report.ParallelOps
		if res.report.MaxWorkers > merged.MaxWorkers {
			merged.MaxWorkers = res.report.MaxWorkers
		}
		merged.MergeTime += res.report.MergeTime
		merged.SpillFallbacks += res.report.SpillFallbacks
		merged.RehashesAvoided += res.report.RehashesAvoided
		merged.Degradations = append(merged.Degradations, res.report.Degradations...)
		merged.Kernels = append(merged.Kernels, res.report.Kernels...)
		for set, t := range res.report.Results {
			merged.Results[set] = t
		}
	}
	merged.Wall = time.Since(start)
	template.finish()
	if firstErr != nil {
		if errors.Is(firstErr, context.Canceled) || errors.Is(firstErr, context.DeadlineExceeded) {
			merged.Cancelled = true
		}
		return merged, firstErr
	}
	annotateKernels(p, merged)
	return merged, nil
}

// splitByRoot cuts the schedule at every base-level computation (Parent ==
// nil), yielding one contiguous segment per sub-plan. A schedule that does
// not start at a sub-plan root is malformed and reported as an error.
func splitByRoot(steps []plan.Step) ([][]plan.Step, error) {
	var segments [][]plan.Step
	startIdx := -1
	for i, s := range steps {
		if s.Kind == plan.StepCompute && s.Parent == nil {
			if startIdx >= 0 {
				segments = append(segments, steps[startIdx:i])
			}
			startIdx = i
		}
	}
	if startIdx >= 0 {
		segments = append(segments, steps[startIdx:])
	} else if len(steps) > 0 {
		return nil, fmt.Errorf("engine: malformed schedule: none of the %d steps computes from the base relation, so no sub-plan root exists", len(steps))
	}
	return segments, nil
}
