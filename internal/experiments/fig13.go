package experiments

import (
	"fmt"
	"time"

	"redplane"
	"redplane/internal/apps"
	"redplane/internal/netsim"
	"redplane/internal/packet"
	"redplane/internal/topo"
)

// Fig13Point is one (update ratio, store count) throughput measurement.
type Fig13Point struct {
	UpdateRatio float64
	Stores      int
	Mpps        float64
}

// String renders the point.
func (p Fig13Point) String() string {
	return fmt.Sprintf("update=%.1f stores=%d  %.3f Mpps", p.UpdateRatio, p.Stores, p.Mpps)
}

// Fig13Result is the Fig. 13 reproduction: in-switch key-value store
// throughput versus update ratio for 1-3 state store servers.
type Fig13Result struct {
	Points []Fig13Point
}

// Fig13 sweeps the update ratio with uniformly random keys: reads are
// served at switch line rate once leases are warm, while updates are
// bound by state-store capacity — which added servers raise.
func Fig13(seed int64, window time.Duration) Fig13Result {
	if window == 0 {
		window = 20 * time.Millisecond
	}
	var out Fig13Result
	const keys = 512
	for _, stores := range []int{1, 2, 3} {
		for _, ratio := range []float64{0, 0.2, 0.4, 0.6, 0.8, 1.0} {
			out.Points = append(out.Points, Fig13Point{
				UpdateRatio: ratio, Stores: stores,
				Mpps: fig13Run(seed, stores, ratio, keys, window),
			})
		}
	}
	return out
}

func fig13Run(seed int64, stores int, ratio float64, keys int, window time.Duration) float64 {
	d := redplane.NewDeployment(redplane.DeploymentConfig{
		Seed:        seed,
		NewApp:      func(int) redplane.App { return &apps.KVStore{} },
		StoreShards: stores,
		// Fig. 13 varies server count, not chain length.
		Replication:  redplane.ReplicationConfig{Replicas: 1},
		StoreService: time.Microsecond,
		Fabric:       fig12Fabric,
	})
	// Requests are addressed through the fabric to a rack anchor; the
	// switches intercept them by the KV header and reply to the client.
	anchor := d.AddServer(1, "kv-anchor", packet4(10, 1, 0, 77))

	replies := 0
	mkClient := func(core int, ip redplane.Addr) *topo.Host {
		h := d.AddClient(core, fmt.Sprintf("kv-client%d", core), ip)
		h.Handler = func(f *netsim.Frame) {
			if f.Pkt != nil && f.Pkt.HasKV {
				replies++
			}
		}
		return h
	}
	clients := []*topo.Host{
		mkClient(0, packet4(100, 0, 0, 1)),
		mkClient(1, packet4(100, 0, 0, 2)),
	}
	send := func(c *topo.Host, sport uint16, key uint64, op packet.KVOp, val uint64) {
		p := packet.NewUDP(c.IP, anchor.IP, sport, packet.KVPort, 0)
		p.HasKV = true
		p.KV = packet.KVHeader{Op: op, Key: key, Val: val}
		c.SendPacket(p)
	}

	// Warm leases: one read per key before the measured window.
	for k := 0; k < keys; k++ {
		send(clients[k%2], uint16(20000+k), uint64(k), packet.KVRead, 0)
	}
	d.RunFor(5 * time.Millisecond)
	replies = 0
	start := d.Now()
	end := start + redplane.Time(window.Nanoseconds())
	rng := randSource(seed)
	// Offered load ~2 Mpps across the clients (1 µs gap each).
	for ci, c := range clients {
		ci, c := ci, c
		n := 0
		d.Sim.Every(d.Now()+netsim.Time(ci*100)+1, 1000, func() bool {
			n++
			key := uint64(rng.Intn(keys))
			if rng.Float64() < ratio {
				send(c, uint16(30000+n%1000), key, packet.KVUpdate, rng.Uint64())
			} else {
				send(c, uint16(30000+n%1000), key, packet.KVRead, 0)
			}
			return d.Now() < end
		})
	}
	d.RunFor(time.Duration(end) + 5*time.Millisecond)
	return float64(replies) / window.Seconds() / 1e6
}
