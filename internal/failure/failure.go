// Package failure schedules fault injection on the simulated testbed:
// switch fail-stop, link-only failures, fabric failure detection after a
// configurable delay, store-server crashes, and recovery — the event
// sequences behind the paper's failover experiments (§7.3) and the chaos
// campaigns of internal/chaos.
package failure

import (
	"fmt"
	"sort"
	"time"

	"redplane/internal/netsim"
	"redplane/internal/obs"
	"redplane/internal/topo"
)

// Switchlike is what failure injection needs from a crashable component:
// internal/core.Switch and internal/store.Server both implement it.
type Switchlike interface {
	Fail()
	Recover()
}

// ColdFailer is implemented by components that can crash losing their
// memory (internal/store.Server): recovery must rebuild state from
// durable storage instead of reusing what the process held.
type ColdFailer interface {
	FailCold()
}

// Kind discriminates schedule events.
type Kind int

// Schedule event kinds.
const (
	// AggFail takes an aggregation slot down: its links drop, and unless
	// LinkOnly the switch fail-stops, losing all state.
	AggFail Kind = iota
	// AggRecover brings the slot's links (and, unless LinkOnly, the
	// switch) back.
	AggRecover
	// StoreFail crashes a store server: it stops processing frames until
	// recovery. By default the crash is warm (shard memory survives);
	// Event.Cold makes it a process death — memory is lost and recovery
	// rebuilds solely from durable state (or from nothing when
	// durability is off).
	StoreFail
	// StoreRecover restarts a crashed store server.
	StoreRecover
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case AggFail:
		return "agg-fail"
	case AggRecover:
		return "agg-recover"
	case StoreFail:
		return "store-fail"
	case StoreRecover:
		return "store-recover"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Event is one fault-injection action at a point in virtual time.
type Event struct {
	// At is when the event fires (virtual time offset).
	At time.Duration
	// Kind selects the action.
	Kind Kind

	// Agg is the aggregation slot for AggFail/AggRecover.
	Agg int
	// DetectDelay is how long after the event the fabric's detection
	// observes the slot's current status and reprograms ECMP. Detection
	// reads the status at observation time, so a flap faster than the
	// detection delay converges to the true state rather than wedging
	// routes on a stale observation.
	DetectDelay time.Duration
	// LinkOnly restricts AggFail/AggRecover to the links, keeping switch
	// memory intact.
	LinkOnly bool

	// Shard, Replica select the store server for StoreFail/StoreRecover.
	Shard, Replica int
	// Cold makes a StoreFail lose the server's memory (see StoreFail).
	Cold bool
}

// Schedule is a multi-event fault schedule: overlapping failures on any
// mix of aggregation slots and store-chain members.
type Schedule struct {
	Events []Event
}

// Targets resolves schedule events to concrete components. Resolvers may
// return nil (plain-router aggregation slots, absent store): the
// link/fabric side of the event still applies.
type Targets struct {
	Testbed *topo.Testbed
	// Agg returns the programmable switch in slot i, or nil.
	Agg func(i int) Switchlike
	// Store returns the store server at (shard, replica), or nil.
	Store func(shard, replica int) Switchlike
}

// injector applies schedule events, tracking per-slot status so delayed
// detection converges on the truth. Observability is optional: all
// handles are populated together iff the simulation carries a registry,
// so a single nil check guards both counters and tracing.
type injector struct {
	sim *netsim.Sim
	t   Targets

	// aggDown is the ground-truth slot status detection samples.
	aggDown map[int]bool
	// aggDead tracks fail-stopped (not merely link-failed) switches:
	// a link-only recovery cannot bring a dead switch's links up.
	aggDead map[int]bool

	injected, recovered *obs.Counter
	tr                  *obs.Tracer
}

func newInjector(sim *netsim.Sim, t Targets) *injector {
	j := &injector{sim: sim, t: t, aggDown: make(map[int]bool), aggDead: make(map[int]bool)}
	if reg := sim.Observer(); reg != nil {
		ns := reg.NS("failure")
		j.injected = ns.Counter("injected")
		j.recovered = ns.Counter("recovered")
		j.tr = reg.Tracer()
	}
	return j
}

// note records an event against the observer. The counter also serves as
// the single observer-present guard: it is nil exactly when no registry
// is installed, in which case tracing is skipped too. A zero event type
// counts without tracing (components that trace their own Fail/Recover).
func (j *injector) note(c *obs.Counter, t obs.EventType, comp string) {
	if c == nil {
		return
	}
	c.Inc()
	if t != 0 && j.tr.Active() {
		j.tr.Emit(obs.Event{T: int64(j.sim.Now()), Type: t, Comp: comp})
	}
}

func (j *injector) apply(e Event) {
	switch e.Kind {
	case AggFail:
		j.t.Testbed.FailAgg(e.Agg)
		j.aggDown[e.Agg] = true
		if !e.LinkOnly {
			j.aggDead[e.Agg] = true
			if sw := j.t.Agg(e.Agg); sw != nil {
				sw.Fail()
			}
		}
		// The switch traces its own EvFailure on Fail(); the fabric-level
		// event records link-only failures too.
		j.note(j.injected, obs.EvLinkDown, fmt.Sprintf("agg%d", e.Agg))
		j.armDetection(e)
	case AggRecover:
		if e.LinkOnly && j.aggDead[e.Agg] {
			// A fail-stopped switch has no links to bring up: absorbing
			// the link-only recovery keeps the fabric from steering
			// traffic into a dead slot. The links return when the switch
			// itself recovers.
			j.note(j.recovered, 0, "")
			return
		}
		j.t.Testbed.RecoverAgg(e.Agg)
		j.aggDown[e.Agg] = false
		if !e.LinkOnly {
			j.aggDead[e.Agg] = false
			if sw := j.t.Agg(e.Agg); sw != nil {
				sw.Recover()
			}
		}
		j.note(j.recovered, obs.EvLinkUp, fmt.Sprintf("agg%d", e.Agg))
		j.armDetection(e)
	case StoreFail:
		// The store server traces its own EvFailure on Fail(); only count.
		if srv := j.t.Store(e.Shard, e.Replica); srv != nil {
			if cf, ok := srv.(ColdFailer); ok && e.Cold {
				cf.FailCold()
			} else {
				srv.Fail()
			}
		}
		j.note(j.injected, 0, "")
	case StoreRecover:
		if srv := j.t.Store(e.Shard, e.Replica); srv != nil {
			srv.Recover()
		}
		j.note(j.recovered, 0, "")
	}
}

// armDetection schedules the fabric's delayed observation of the slot: it
// reprograms ECMP to the slot's status at observation time.
func (j *injector) armDetection(e Event) {
	agg := e.Agg
	j.sim.After(e.DetectDelay, func() {
		j.t.Testbed.DetectAggFailure(agg, j.aggDown[agg])
	})
}

// Install schedules every event of the schedule on the simulation.
// Events are applied in time order (ties keep schedule order).
func Install(sim *netsim.Sim, t Targets, sched Schedule) {
	if t.Agg == nil {
		t.Agg = func(int) Switchlike { return nil }
	}
	if t.Store == nil {
		t.Store = func(int, int) Switchlike { return nil }
	}
	j := newInjector(sim, t)
	events := append([]Event(nil), sched.Events...)
	sort.SliceStable(events, func(a, b int) bool { return events[a].At < events[b].At })
	for _, e := range events {
		e := e
		sim.After(e.At, func() { j.apply(e) })
	}
}
