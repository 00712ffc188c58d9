package redplane

import (
	"fmt"
	"time"

	"redplane/internal/core"
	"redplane/internal/durable"
	"redplane/internal/failure"
	"redplane/internal/flowspace"
	"redplane/internal/member"
	"redplane/internal/netem"
	"redplane/internal/netsim"
	"redplane/internal/obs"
	"redplane/internal/packet"
	"redplane/internal/store"
	"redplane/internal/topo"
)

// BaselineConfig selects non-fault-tolerant baseline operation: the
// paper's comparison points, where state lives only on the switch.
type BaselineConfig struct {
	// NoStore disables the state store entirely: switches run the
	// application without fault tolerance. Protocol.LocalInit seeds their
	// per-flow state and Protocol.LocalInitExtraDelay models an external
	// controller on flow setup.
	NoStore bool
}

// AblationConfig degrades the state store for ablation experiments only;
// production deployments leave it zero. The switch-side ablations
// (Protocol.DisableRetransmit, Protocol.EmulatedRequestLoss) live on
// ProtocolConfig.
type AblationConfig struct {
	// StoreIgnoreSeq disables the store's sequence serialization — the
	// Fig. 6a ablation.
	StoreIgnoreSeq bool

	// StoreNoRevoke disables lease revocation on failover at the store —
	// the intentionally-broken protocol knob the chaos harness must
	// catch (see store.Config.UnsafeNoRevoke).
	StoreNoRevoke bool
}

// DefaultTraceEvents is the event-ring capacity ObsConfig.TraceEvents
// selects when callers just want tracing on.
const DefaultTraceEvents = 65536

// ObsConfig tunes the deployment's observability: counters are always
// on (they are single atomic adds); event tracing and gauge sampling
// are opt-in because they cost memory proportional to run length.
type ObsConfig struct {
	// TraceEvents, when positive, enables the protocol event tracer
	// with a bounded ring of that many events (DefaultTraceEvents is a
	// reasonable choice). Zero disables tracing.
	TraceEvents int

	// SamplePeriod, when positive, samples every registered gauge into
	// a time series at this virtual-time period.
	SamplePeriod time.Duration
}

// DeploymentConfig describes a RedPlane deployment on the simulated
// testbed: how many programmable switches fill the aggregation layer,
// the application each runs, the consistency mode, and the state store's
// shape.
type DeploymentConfig struct {
	// Seed drives the deterministic simulation.
	Seed int64

	// NewApp builds the application instance for switch i. Required.
	NewApp func(i int) App

	// Mode is the consistency mode (default Linearizable).
	Mode Mode

	// Switches is the number of programmable aggregation switches
	// (default 2, as on the paper's testbed).
	Switches int

	// Replication selects the store's replication engine (EngineChain,
	// EngineQuorum) and group size (default a 3-member chain, as in the
	// paper's §6 prototype).
	Replication ReplicationConfig

	// StoreShards is the number of store shards, each served by its own
	// replication group (default 1, as in the prototype).
	StoreShards int

	// StoreService is the per-request service time at a store server
	// (default 2 µs, approximating the kernel-bypass server).
	StoreService time.Duration

	// StoreDurability enables the store's persistence layer: each server
	// gets an in-memory durable backend (a "disk" that survives cold
	// restarts), WAL-logs every mutation, and holds chain forwards and
	// acks behind a group-commit fsync elapsing in virtual time. See
	// store.DurabilityConfig.
	StoreDurability store.DurabilityConfig

	// StoreMembership enables the group membership coordinator: dead
	// replicas are spliced out of their replication group (preserving
	// survivor order), stale views are fenced, and recovered replicas
	// resync and rejoin. Without it the group topology is fixed at
	// construction.
	StoreMembership bool

	// FlowSpace enables consistent-hash flow-space routing: instead of
	// the static hash-mod-shards mapping, five-tuples route to the
	// StoreShards chains through an epoch-numbered ring
	// (internal/flowspace), and the membership coordinator gains
	// migration duties — fencing a moving key range, transferring its
	// durable state between chains, and flipping the routing epoch with no
	// acked write lost (see internal/member's migration doc). It implies
	// StoreMembership: the coordinator is the only component allowed to
	// mutate the ring.
	FlowSpace bool

	// InitState is the store-side state initializer for new flows (the
	// place shared pools live; see internal/apps allocators).
	InitState func(key FiveTuple) []uint64

	// SnapshotSlots is the store's expected snapshot image size for
	// bounded-inconsistency apps.
	SnapshotSlots int

	// Protocol tunes the replication protocol at the switches. A config
	// with LeasePeriod == 0 is replaced wholesale by
	// DefaultProtocolConfig(), so callers that set any field start from
	// DefaultProtocolConfig() and adjust it.
	Protocol ProtocolConfig

	// Fabric overrides the testbed link configuration (zero value means
	// the default 100 Gbps / 800 ns fabric).
	Fabric netsim.LinkConfig

	// RecordHistory enables input/output event recording for the
	// linearizability checker.
	RecordHistory bool

	// RecordJournal enables the acknowledged-write journal shared by all
	// switches, exposed as Deployment.Journal (the chaos harness's
	// no-lost-write checker input).
	RecordJournal bool

	// Baseline selects non-fault-tolerant baseline operation.
	Baseline BaselineConfig

	// Ablation degrades the store for ablation experiments.
	Ablation AblationConfig

	// Obs tunes tracing and time-series sampling.
	Obs ObsConfig

	// NetEm enables the network-condition emulation subsystem: per-node
	// clocks with bounded drift/offset, WAN datacenter topologies, and
	// (at fault time, via SetStoreGray/SetStoreOneWay) gray failures and
	// asymmetric partitions. The zero value keeps the deployment
	// byte-identical to one built before the subsystem existed.
	NetEm netem.Config
}

// Deployment is a running RedPlane testbed: simulator, topology,
// switches, and state store, plus helpers to attach traffic endpoints
// and inject failures.
type Deployment struct {
	Sim     *netsim.Sim
	Testbed *topo.Testbed
	Cluster *store.Cluster
	Hist    *History
	Journal *WriteJournal

	// Coordinator is the chain membership coordinator (nil unless
	// StoreMembership or FlowSpace is set).
	Coordinator *member.Coordinator

	// FlowTable is the flow-space routing ring (nil unless
	// FlowSpace). All switches and stores read this one table —
	// the idealized instantly-consistent routing rollout; the epoch
	// number is what a real control plane would distribute.
	FlowTable *flowspace.Table

	switches []*core.Switch
	swIPs    []packet.Addr
	reg      *obs.Registry

	// em is the network-condition manager (nil unless NetEm enabled);
	// storeUplinks holds each store server's uplink port in Cluster.All
	// order so conditions can be attached per direction.
	em           *netem.Manager
	storeUplinks []*netsim.Port

	// storeBEs[shard][replica] are the store servers' durable backends
	// (nil unless StoreDurability.Enabled).
	storeBEs [][]*durable.MemBackend
}

// deploymentObserver is the package-level hook installed by
// SetDeploymentObserver.
var deploymentObserver struct {
	obs ObsConfig
	fn  func(*Deployment)
}

// SetDeploymentObserver installs a process-wide observability hook for
// tooling (the bench CLI's -trace/-stats flags): every subsequently
// built Deployment has forced merged into its Obs config (keeping the
// stronger of the two settings) and is handed to fn after construction.
// Pass a zero ObsConfig and nil fn to uninstall. Not safe against
// concurrent NewDeployment calls.
func SetDeploymentObserver(forced ObsConfig, fn func(*Deployment)) {
	deploymentObserver.obs = forced
	deploymentObserver.fn = fn
}

// NewDeployment builds and wires the testbed.
func NewDeployment(cfg DeploymentConfig) *Deployment {
	if cfg.NewApp == nil {
		panic("redplane: DeploymentConfig.NewApp is required")
	}
	if o := deploymentObserver.obs; o.TraceEvents > cfg.Obs.TraceEvents {
		cfg.Obs.TraceEvents = o.TraceEvents
	}
	if o := deploymentObserver.obs; o.SamplePeriod > 0 &&
		(cfg.Obs.SamplePeriod == 0 || o.SamplePeriod < cfg.Obs.SamplePeriod) {
		cfg.Obs.SamplePeriod = o.SamplePeriod
	}
	if cfg.Switches == 0 {
		cfg.Switches = 2
	}
	if cfg.StoreShards == 0 {
		cfg.StoreShards = 1
	}
	if err := cfg.Replication.Validate(); err != nil {
		panic("redplane: " + err.Error())
	}
	cfg.Replication = cfg.Replication.WithDefaults()
	replicas := cfg.Replication.Replicas
	if cfg.StoreService == 0 {
		cfg.StoreService = 2 * time.Microsecond
	}
	if cfg.Protocol.LeasePeriod == 0 {
		cfg.Protocol = DefaultProtocolConfig()
	}
	if cfg.Fabric.Delay == 0 && cfg.Fabric.Bandwidth == 0 {
		cfg.Fabric = netsim.LinkConfig{Delay: 800 * time.Nanosecond, Bandwidth: 100e9}
	}

	sim := netsim.New(cfg.Seed)
	d := &Deployment{Sim: sim, reg: obs.NewRegistry()}
	if cfg.Obs.TraceEvents > 0 {
		d.reg.SetTracer(obs.NewTracer(cfg.Obs.TraceEvents))
	}
	// The registry must be installed before topology construction: links
	// and servers cache their counters when they are built.
	sim.SetObserver(d.reg)
	if cfg.Obs.SamplePeriod > 0 {
		period := netsim.Duration(cfg.Obs.SamplePeriod)
		sim.Every(period, period, func() bool {
			d.reg.SampleAll(int64(sim.Now()))
			return true
		})
	}
	if cfg.RecordHistory {
		d.Hist = &History{}
		cfg.Protocol.History = d.Hist
	}
	if cfg.RecordJournal {
		d.Journal = &WriteJournal{}
		cfg.Protocol.Journal = d.Journal
	}

	var locator core.StoreLocator
	if !cfg.Baseline.NoStore {
		opts := []store.Option{store.WithEngine(cfg.Replication.Engine)}
		if cfg.StoreDurability.Enabled {
			d.storeBEs = make([][]*durable.MemBackend, cfg.StoreShards)
			for sh := range d.storeBEs {
				d.storeBEs[sh] = make([]*durable.MemBackend, replicas)
			}
			opts = append(opts, store.WithDurability(cfg.StoreDurability,
				func(shard, replica int) durable.Backend {
					be := durable.NewMemBackend()
					d.storeBEs[shard][replica] = be
					return be
				}))
		}
		d.Cluster = store.NewCluster(sim, cfg.StoreShards, replicas,
			store.Config{
				LeasePeriod:    cfg.Protocol.LeasePeriod,
				InitState:      cfg.InitState,
				SnapshotSlots:  cfg.SnapshotSlots,
				IgnoreSeq:      cfg.Ablation.StoreIgnoreSeq,
				UnsafeNoRevoke: cfg.Ablation.StoreNoRevoke,
			},
			cfg.StoreService,
			func(shard, replica int) packet.Addr {
				return packet.MakeAddr(10, 100, byte(shard+1), byte(replica+1))
			},
			opts...)
		if cfg.FlowSpace {
			d.FlowTable = flowspace.New(cfg.StoreShards, 0)
			d.Cluster.UseTable(d.FlowTable)
		}
		if cfg.StoreMembership || cfg.FlowSpace {
			d.Coordinator = member.New(sim, d.Cluster, member.Config{Table: d.FlowTable})
			d.Coordinator.Start()
		}
		locator = d.Cluster
	}

	var aggs []topo.RoutedNode
	for i := 0; i < cfg.Switches; i++ {
		ip := packet.MakeAddr(10, 254, 0, byte(i+1))
		d.swIPs = append(d.swIPs, ip)
		sw := core.NewSwitch(sim, i, fmt.Sprintf("redplane-sw%d", i), ip,
			cfg.NewApp(i), cfg.Mode, locator, cfg.Protocol)
		d.switches = append(d.switches, sw)
		aggs = append(aggs, sw)
	}

	d.Testbed = topo.NewTestbed(sim, topo.TestbedConfig{Fabric: cfg.Fabric, Cores: 2, ToRs: 2}, aggs)
	for i, ip := range d.swIPs {
		d.Testbed.RegisterAggIP(i, ip)
	}

	if d.Cluster != nil {
		// Store servers keep their full-rate NICs even when the fabric
		// is scaled down for simulation tractability: the paper's store
		// uses 100 Gbps kernel-bypass NICs, so its links are never the
		// scaled bottleneck.
		storeLink := cfg.Fabric
		if storeLink.Bandwidth > 0 && storeLink.Bandwidth < 100e9 {
			storeLink.Bandwidth *= 4
		}
		for si, srv := range d.Cluster.All() {
			rack := (si % replicas) % 2
			p := d.Testbed.AddRackNodeLink(rack, srv, srv.IP, storeLink)
			srv.SetPort(p)
			srv.SwitchAddr = d.SwitchIP
			d.storeUplinks = append(d.storeUplinks, p)
		}
	}
	if cfg.NetEm.Enabled() {
		d.installNetEm(cfg)
	}
	if deploymentObserver.fn != nil {
		deploymentObserver.fn(d)
	}
	return d
}

// installNetEm builds the network-condition manager and applies the
// construction-time conditions: per-node clocks (switches first, then
// store servers in Cluster.All order — the draw order is part of the
// deterministic contract) and WAN inter-DC base delays on the uplinks
// of store replicas placed outside the hub datacenter.
func (d *Deployment) installNetEm(cfg DeploymentConfig) {
	if cfg.NetEm.Seed == 0 {
		cfg.NetEm.Seed = cfg.Seed
	}
	d.em = netem.NewManager(cfg.NetEm, d.reg)
	for _, sw := range d.switches {
		if c := d.em.NewClock(); c != nil {
			sw.SetClock(c)
		}
	}
	if d.Cluster == nil {
		return
	}
	wan := cfg.NetEm.Topology
	for si, srv := range d.Cluster.All() {
		if c := d.em.NewClock(); c != nil {
			srv.SetClock(c)
		}
		replica := si % cfg.Replication.Replicas
		if delay := wan.NodeDelay(wan.DCOf(replica)); delay > 0 {
			out, in := d.storeUplinkPorts(si)
			d.em.Cond(out).SetBaseDelay(delay)
			d.em.Cond(in).SetBaseDelay(delay)
		}
	}
}

// storeUplinkPorts returns both directions of the store server uplink at
// Cluster.All index si: out conditions frames the server sends, in
// conditions frames sent toward it.
func (d *Deployment) storeUplinkPorts(si int) (out, in *netsim.Port) {
	p := d.storeUplinks[si]
	a, b := p.Link().Ports()
	if a == p {
		return a, b
	}
	return b, a
}

// SetStoreGray installs (or clears, with nil) a gray-failure shape on
// both directions of the store server's uplink: the replica stays alive
// — liveness probes still pass — but every frame to or from it sees the
// shape's delay, burst loss, and throttled bandwidth.
func (d *Deployment) SetStoreGray(shard, replica int, shape *netem.GrayShape) {
	if d.em == nil || d.Cluster == nil {
		return
	}
	out, in := d.storeUplinkPorts(shard*d.Cluster.Replicas() + replica)
	d.em.Cond(out).SetGray(shape)
	d.em.Cond(in).SetGray(shape)
}

// SetStoreOneWay opens (or heals, with cut=false) a one-way partition
// on the store server's uplink. inbound=true cuts traffic toward the
// server while its own sends still flow — the asymmetric half-failure
// that makes a replica look alive to some observers and dead to others.
func (d *Deployment) SetStoreOneWay(shard, replica int, inbound, cut bool) {
	if d.em == nil || d.Cluster == nil {
		return
	}
	out, in := d.storeUplinkPorts(shard*d.Cluster.Replicas() + replica)
	if inbound {
		d.em.Cond(in).SetCut(cut)
	} else {
		d.em.Cond(out).SetCut(cut)
	}
}

// Switch returns programmable switch i.
func (d *Deployment) Switch(i int) *core.Switch { return d.switches[i] }

// StoreBackend returns the durable backend behind the store server at
// (shard, replica), or nil when durability is off. The chaos harness
// dumps these alongside violation repros.
func (d *Deployment) StoreBackend(shard, replica int) *durable.MemBackend {
	if d.storeBEs == nil {
		return nil
	}
	return d.storeBEs[shard][replica]
}

// Switches returns the switch count.
func (d *Deployment) Switches() int { return len(d.switches) }

// SwitchIP returns switch i's protocol address.
func (d *Deployment) SwitchIP(i int) Addr { return d.swIPs[i] }

// SwitchFor returns the switch the fabric's ECMP maps the flow to while
// all switches are healthy.
func (d *Deployment) SwitchFor(key FiveTuple) *core.Switch {
	return d.switches[key.SymmetricHash()%uint64(len(d.switches))]
}

// AddClient attaches a traffic endpoint outside the data center (on core
// c).
func (d *Deployment) AddClient(c int, name string, ip Addr) *topo.Host {
	return d.Testbed.AddExternalHost(c, name, ip)
}

// AddServer attaches a rack server under ToR rack.
func (d *Deployment) AddServer(rack int, name string, ip Addr) *topo.Host {
	return d.Testbed.AddRackHost(rack, name, ip)
}

// RegisterServiceIP routes a virtual service address (NAT public IP,
// load-balancer VIP) to the aggregation layer.
func (d *Deployment) RegisterServiceIP(ip Addr) { d.Testbed.RegisterServiceIP(ip) }

// RunFor advances the simulation to the given virtual time offset.
func (d *Deployment) RunFor(dur time.Duration) { d.Sim.RunUntil(netsim.Duration(dur)) }

// Run drains all pending events. With a state store attached, periodic
// protocol timers (lease renewal) reschedule themselves indefinitely —
// as does gauge sampling when Obs.SamplePeriod is set — so prefer
// RunFor with an explicit horizon; Run only terminates for NoStore
// deployments without sampling.
func (d *Deployment) Run() { d.Sim.Run() }

// Observe returns the deployment's observability registry: every
// counter, gauge, sampled series, and the event tracer (nil unless
// Obs.TraceEvents enabled it).
func (d *Deployment) Observe() *obs.Registry { return d.reg }

// Now returns the current virtual time.
func (d *Deployment) Now() Time { return d.Sim.Now() }

// FailurePlan re-exports the failure injection schedule.
type FailurePlan = failure.Plan

// FaultEvent and FaultSchedule re-export the generalized multi-event
// fault schedule used by the chaos harness.
type (
	FaultEvent    = failure.Event
	FaultSchedule = failure.Schedule
)

// ScheduleFailure installs a failure/recovery schedule for switch i.
func (d *Deployment) ScheduleFailure(p FailurePlan) {
	failure.ApplyPlan(d.Sim, d.Testbed, d.switches[p.Agg], p)
}

// ScheduleFaultEvents installs a multi-event fault schedule covering
// aggregation switches and store-chain servers.
func (d *Deployment) ScheduleFaultEvents(sched FaultSchedule) {
	t := failure.Targets{
		Testbed: d.Testbed,
		Agg: func(i int) failure.Switchlike {
			if i < 0 || i >= len(d.switches) {
				return nil
			}
			return d.switches[i]
		},
	}
	if d.Cluster != nil {
		t.Store = func(shard, replica int) failure.Switchlike {
			if shard < 0 || shard >= d.Cluster.Shards() ||
				replica < 0 || replica >= d.Cluster.Replicas() {
				return nil
			}
			return d.Cluster.Server(shard, replica)
		}
	}
	failure.Install(d.Sim, t, sched)
}

// CheckLinearizable validates the recorded history against the per-flow
// counter machine; it returns nil when no history was recorded.
func (d *Deployment) CheckLinearizable() error {
	if d.Hist == nil {
		return nil
	}
	return d.Hist.CheckCounterLinearizable()
}
