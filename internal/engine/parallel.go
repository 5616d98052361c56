package engine

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"gbmqo/internal/exec"
	"gbmqo/internal/plan"
)

// runSegments runs the schedule's segments — the whole schedule as one, or
// under Parallel one per sub-plan — each in its own planRun (see segment),
// and merges their reports into r's in schedule order. Segments and the
// operators' extra shares draw from one pool of worker tokens (the run's
// Gov): one dispatch loop waits for a token before each segment starts and
// hands it to the segment's goroutine, longest segment first (see
// dispatchOrder), so a long sub-plan does not start last and finish alone.
// Schedule emits each sub-plan's steps contiguously, and sub-plans share no
// intermediates (grouping sets are unique across the plan), so segments
// share only the governor and memory budget: cancellation stops every
// segment and PeakMem reflects true concurrent usage.
func (r *planRun) runSegments(p *plan.Plan, segments [][]plan.Step) (*ExecReport, error) {
	type result struct {
		report *ExecReport
		err    error
	}
	results := make([]result, len(segments))
	var wg sync.WaitGroup
	start := time.Now()
	for _, i := range r.dispatchOrder(segments) {
		if err := r.gov.Take(); err != nil {
			results[i].err = err
			break
		}
		wg.Add(1)
		go func(i int, seg []plan.Step) {
			defer wg.Done()
			defer r.gov.Release(1)
			run := r.segment()
			// A panic inside this segment must not kill the process: recover
			// it here (ExecutePlanWith's boundary recover does not reach this
			// goroutine) and convert it to a typed error, releasing the
			// segment's temps either way.
			defer func() {
				if pnc := recover(); pnc != nil {
					run.releaseAll()
					results[i] = result{report: run.report, err: &exec.ExecError{
						Step: run.curStep, Err: exec.RecoveredPanic(pnc)}}
				}
			}()
			err := runSteps(run, seg)
			if err != nil {
				run.releaseAll()
			}
			results[i] = result{report: run.report, err: err}
		}(i, segments[i])
	}
	wg.Wait()

	merged := r.report
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
	if firstErr != nil {
		return r.fail(firstErr)
	}
	r.finish()
	annotateKernels(p, merged)
	return merged, nil
}

// dispatchOrder returns the segments' indices longest first (ties in
// schedule order). A segment's length is the sum, over its compute steps, of
// the rows the step reads — the base relation's, or its parent's estimated
// groups — plus the groups it produces. Group counts come from the NDV
// estimates the planner already built (Hooks.NDVFn), so ordering never
// profiles; without them the schedule order stands.
func (r *planRun) dispatchOrder(segments [][]plan.Step) []int {
	order := make([]int, len(segments))
	for i := range order {
		order[i] = i
	}
	if len(segments) < 2 || r.hooks.NDVFn == nil {
		return order
	}
	work := make([]float64, len(segments))
	for i, seg := range segments {
		for _, s := range seg {
			if s.Kind != plan.StepCompute {
				continue
			}
			rows := float64(r.base.NumRows())
			if s.Parent != nil {
				rows = r.hooks.NDVFn(s.Parent.Set)
			}
			work[i] += rows + r.hooks.NDVFn(s.Node.Set)
		}
	}
	sort.SliceStable(order, func(a, b int) bool { return work[order[a]] > work[order[b]] })
	return order
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
