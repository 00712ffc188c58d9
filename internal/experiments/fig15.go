package experiments

import (
	"fmt"
	"time"

	"redplane"
	"redplane/internal/apps"
	"redplane/internal/netsim"
	"redplane/internal/pipeline"
)

// Fig15Point is one (traffic rate, request loss) buffer measurement.
type Fig15Point struct {
	// RateGbps is the offered data rate in scaled fabric units;
	// PaperGbps is the corresponding point of the paper's 20-100 Gbps
	// sweep (the sweep fraction times 100).
	RateGbps  float64
	PaperGbps float64
	// LossPercent is the emulated protocol request loss.
	LossPercent float64
	// MaxBufferKB is the peak retransmission-buffer occupancy observed
	// (the buf_bytes gauge's high-water mark).
	MaxBufferKB float64
	// MeanBufferKB is the time-averaged occupancy over the run, from the
	// sampled buf_bytes series.
	MeanBufferKB float64
}

// String renders the point.
func (p Fig15Point) String() string {
	return fmt.Sprintf("rate=%.2f Gbps (paper: %3.0f Gbps) loss=%.0f%%  buffer=%.2f KB (mean %.2f KB)",
		p.RateGbps, p.PaperGbps, p.LossPercent, p.MaxBufferKB, p.MeanBufferKB)
}

// Fig15Result is the Fig. 15 reproduction: switch packet-buffer occupancy
// of the mirroring-based request buffering, versus traffic rate and
// request loss rate, for a write-per-packet application.
type Fig15Result struct {
	Points []Fig15Point
}

// Fig15 sweeps offered rate (fractions of the scaled fabric) and emulated
// request loss (0/1/2%, dropped at the switch exactly as §7.4 does),
// recording peak truncated-request bytes held for retransmission.
func Fig15(seed int64, window time.Duration) Fig15Result {
	if window == 0 {
		window = 10 * time.Millisecond
	}
	var out Fig15Result
	for _, lossPct := range []float64{0, 1, 2} {
		for _, frac := range []float64{0.2, 0.4, 0.6, 0.8, 1.0} {
			out.Points = append(out.Points, fig15Run(seed, frac, lossPct, window))
		}
	}
	return out
}

func fig15Run(seed int64, frac, lossPct float64, window time.Duration) Fig15Point {
	proto := redplane.DefaultProtocolConfig()
	proto.RetransTimeout = 5 * time.Millisecond
	// The occupancy measurement must not clip against the buffer bound
	// (the paper's ASIC has "a few tens of MB" of packet buffer).
	proto.MirrorBufferLimit = 32 * 1024 * 1024
	proto.EmulatedRequestLoss = lossPct / 100
	d := redplane.NewDeployment(redplane.DeploymentConfig{
		Seed:         seed,
		NewApp:       func(int) redplane.App { return apps.SyncCounter{} },
		Protocol:     proto,
		Obs:          redplane.ObsConfig{SamplePeriod: 250 * time.Microsecond},
		Fabric:       fig12Fabric,
		StoreService: time.Microsecond,
	})
	snd := d.AddServer(0, "snd", packet4(10, 0, 0, 51))
	d.AddClient(0, "sink", extServerIP)

	// Offered rate: frac of the write path's non-saturated range (the
	// paper's sweep stays below its testbed's saturation too). Requests
	// are ~2.2x the data bytes, so the 1 Gbps request link saturates
	// near 0.45 Gbps of data; sweep up to 0.4.
	maxData := 0.4 * fig12Fabric.Bandwidth
	pps := frac * maxData / (64 * 8)
	gap := netsim.Time(1e9 / pps)
	n := 0
	d.Sim.Every(1, gap, func() bool {
		n++
		snd.SendPacket(newTinyPacket(snd.IP, extServerIP, uint16(1000+n%64)))
		return d.Sim.Now() < redplane.Time(window.Nanoseconds())
	})
	d.RunFor(window + 10*time.Millisecond)

	// Both occupancy figures come from the observability layer: the peak
	// from the snapshot's gauge high-water mark, the mean from the
	// periodically sampled buf_bytes series.
	maxBuf := 0
	for _, st := range d.Snapshot().Switches {
		if st.MaxBufBytes > maxBuf {
			maxBuf = st.MaxBufBytes
		}
	}
	var meanBuf float64
	for i := 0; i < d.Switches(); i++ {
		name := fmt.Sprintf("switch/redplane-sw%d/buf_bytes", i)
		if s := d.Observe().Series(name); s != nil {
			meanBuf += s.Mean()
		}
	}
	return Fig15Point{
		RateGbps:     frac * maxData / 1e9,
		PaperGbps:    frac * 100,
		LossPercent:  lossPct,
		MaxBufferKB:  float64(maxBuf) / 1024,
		MeanBufferKB: meanBuf / 1024,
	}
}

// Table2Result is the Appendix E / Table 2 reproduction: additional
// switch ASIC resources consumed by the RedPlane data plane at 100k
// concurrent flows.
type Table2Result struct {
	Rows  []pipeline.Report
	Flows int
}

// Table2 reports the resource model's output.
func Table2(flows int) Table2Result {
	if flows == 0 {
		flows = 100_000
	}
	return Table2Result{
		Rows:  pipeline.ReportUsage(pipeline.DefaultBudget(), pipeline.DefaultRedPlaneCost(), flows),
		Flows: flows,
	}
}
