// Package chaos is a deterministic fault-injection harness: it derives a
// fault schedule from a seed, arms it on the process-wide failpoint hook
// (exec.Testing), and counts what actually fired. The harness itself injects
// nothing on its own — tests drive real workloads through the library while
// a schedule is installed and then assert the resilience invariants (results
// byte-identical or cleanly errored, no goroutine leaks, scheduler books
// balanced). See chaos_test.go and DESIGN.md "Failure semantics".
//
// Faults are panics, the harshest failure the engine claims to contain:
// every armed site sits under a recover boundary (parallel workers, engine
// runs, singleflight leaders, batch dispatch, HTTP handlers), so a strike
// exercises containment, classification, retry and fan-out all at once.
package chaos

import (
	"fmt"
	"math/rand"
	"sort"
	"sync/atomic"

	"gbmqo/internal/exec"
)

// Sites are the failpoints a schedule can arm, spanning every layer of the
// stack: operator internals, the engine step loop, temp-table retention,
// cache admission (inside a singleflight leader), the scheduler's probe and
// dispatch, and the HTTP handler chain. The HTTP site stays last: trials
// without a server arm Sites[:len(Sites)-1].
var Sites = []string{
	"exec.share.worker",
	"exec.hash.batch",
	"exec.sort.stream",
	"engine.step",
	"engine.retain",
	"cache.admit",
	"sched.window.close",
	"shard.scatter",
	"shard.exec",
	"shard.merge",
	"shard.hedge",
	"table.append",
	"cache.refresh",
	"wal.append",
	"wal.fsync",
	"snapshot.write",
	"recover.replay",
	"sched.probe",
	"server.handler",
}

// Fault arms one failpoint: panic the Nth time Site fires (1-based,
// process-wide across all goroutines).
type Fault struct {
	Site string
	Nth  int64
}

// Schedule is a seed-derived fault plan. Equal seeds over equal site lists
// always produce equal schedules.
type Schedule struct {
	Seed   int64
	Faults []Fault
}

// NewSchedule derives a deterministic schedule from seed: between 1 and
// maxFaults faults, each at a site drawn from sites and striking within that
// site's first spread firings. Duplicate (site, nth) draws collapse.
func NewSchedule(seed int64, sites []string, maxFaults, spread int) Schedule {
	rng := rand.New(rand.NewSource(seed))
	n := 1 + rng.Intn(maxFaults)
	seen := make(map[Fault]bool, n)
	s := Schedule{Seed: seed}
	for i := 0; i < n; i++ {
		f := Fault{Site: sites[rng.Intn(len(sites))], Nth: 1 + int64(rng.Intn(spread))}
		if seen[f] {
			continue
		}
		seen[f] = true
		s.Faults = append(s.Faults, f)
	}
	return s
}

// String renders a schedule compactly for failure messages.
func (s Schedule) String() string {
	out := fmt.Sprintf("seed %d:", s.Seed)
	for _, f := range s.Faults {
		out += fmt.Sprintf(" %s#%d", f.Site, f.Nth)
	}
	return out
}

// siteState tracks one site's firings and its armed strike points.
type siteState struct {
	count   atomic.Int64
	strikes []int64 // sorted, read-only after Install
}

// Injector is an installed schedule: it observes every failpoint firing and
// panics at the armed ones. The fire path is lock-free — the site map is
// frozen at Install and only atomic counters move afterwards.
type Injector struct {
	schedule Schedule
	sites    map[string]*siteState
	struck   atomic.Int64
}

// Install arms s on the process-wide failpoint hook and returns the
// injector. Only one injector (or any other failpoint) can be installed at a
// time; Uninstall when done.
func Install(s Schedule) *Injector {
	in := &Injector{schedule: s, sites: make(map[string]*siteState, len(Sites))}
	for _, site := range Sites {
		in.sites[site] = &siteState{}
	}
	for _, f := range s.Faults {
		st := in.sites[f.Site]
		if st == nil {
			st = &siteState{}
			in.sites[f.Site] = st
		}
		st.strikes = append(st.strikes, f.Nth)
	}
	for _, st := range in.sites {
		sort.Slice(st.strikes, func(i, j int) bool { return st.strikes[i] < st.strikes[j] })
	}
	exec.Testing.SetFailPoint(in.fire)
	return in
}

func (in *Injector) fire(site string) {
	st := in.sites[site]
	if st == nil {
		return
	}
	n := st.count.Add(1)
	for _, strike := range st.strikes {
		if strike == n {
			in.struck.Add(1)
			panic(fmt.Sprintf("chaos: injected fault at %s firing %d (seed %d)", site, n, in.schedule.Seed))
		}
		if strike > n {
			break
		}
	}
}

// Uninstall removes the hook. Counters remain readable.
func (in *Injector) Uninstall() { exec.Testing.ClearFailPoint() }

// Struck reports how many armed faults actually detonated.
func (in *Injector) Struck() int64 { return in.struck.Load() }

// Fired reports how many times site has fired so far.
func (in *Injector) Fired(site string) int64 {
	if st := in.sites[site]; st != nil {
		return st.count.Load()
	}
	return 0
}
