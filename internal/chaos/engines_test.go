package chaos

import (
	"testing"
	"time"

	"redplane/internal/repl"
	"redplane/internal/runner"
)

// violationStrings renders a campaign's violations for cross-engine
// comparison. Only the verdict is compared — op counts and fault timing
// interleave differently per engine, but every checker must reach the
// same conclusion about the same seed whichever engine replicates the
// store.
func violationStrings(r Result) []string {
	out := make([]string, len(r.Violations))
	for i, v := range r.Violations {
		out[i] = v.String()
	}
	return out
}

// TestEngineVerdictEquivalence runs the same seeded campaigns on the
// chain and quorum engines and asserts the violation verdicts are
// identical — the contract that lets the chaos suite certify a new
// engine without new checkers. Clean seeds must be clean on both. A
// third run per campaign, chain with switch egress batching off, must
// verdict identically too: coalescing may change framing and timing,
// never a protocol outcome.
func TestEngineVerdictEquivalence(t *testing.T) {
	seeds := 20
	if testing.Short() {
		seeds = 6
	}
	type campaign struct {
		seed    int64
		bounded bool
		profile string // "" = default
		chains  int
	}
	var cases []campaign
	for s := int64(1); s <= int64(seeds); s++ {
		cases = append(cases, campaign{seed: s}, campaign{seed: s, bounded: true},
			// Flow-space migrations under failover must also verdict
			// identically across engines.
			campaign{seed: s, profile: "migrate", chains: 4})
	}

	// Each (seed, mode, engine, batching) campaign owns a private
	// simulator, so the whole matrix fans across the worker pool.
	units := make([]func() [3]Result, len(cases))
	for i, c := range cases {
		c := c
		units[i] = func() [3]Result {
			base := Config{Seed: c.seed, Bounded: c.bounded, Chains: c.chains,
				Duration: 500 * time.Millisecond}
			if c.profile != "" {
				base.Profile = Profiles[c.profile]
			}
			chainCfg := base
			quorumCfg := base
			quorumCfg.Engine = repl.EngineQuorum
			unbatchedCfg := base
			unbatchedCfg.BatchWindow = -1
			return [3]Result{Run(chainCfg), Run(quorumCfg), Run(unbatchedCfg)}
		}
	}
	results := runner.Map(0, units)

	for i, runs := range results {
		c := cases[i]
		chain, quorum, unbatched := runs[0], runs[1], runs[2]
		cv := violationStrings(chain)
		for _, other := range []struct {
			name string
			r    Result
		}{{"quorum", quorum}, {"unbatched chain", unbatched}} {
			ov := violationStrings(other.r)
			if len(cv) != len(ov) {
				t.Errorf("seed %d %s: chain %d violations %v, %s %d violations %v",
					c.seed, modeName(c.bounded), len(cv), cv, other.name, len(ov), ov)
				continue
			}
			for j := range cv {
				if cv[j] != ov[j] {
					t.Errorf("seed %d %s violation %d: chain %q vs %s %q",
						c.seed, modeName(c.bounded), j, cv[j], other.name, ov[j])
				}
			}
		}
		if !chain.Passed() {
			t.Errorf("seed %d %s: chain engine not clean: %v", c.seed, modeName(c.bounded), cv)
		}
		if chain.Ops < minOps || quorum.Ops < minOps || unbatched.Ops < minOps {
			t.Errorf("seed %d %s: progress floor: chain %d ops, quorum %d ops, unbatched chain %d ops",
				c.seed, modeName(c.bounded), chain.Ops, quorum.Ops, unbatched.Ops)
		}
	}
}

func modeName(bounded bool) string {
	if bounded {
		return "bounded"
	}
	return "linearizable"
}

// TestEngineEquivalenceCatchesBrokenKnob: verdict equivalence includes
// failing verdicts — the intentionally-broken no-revoke knob must be
// caught on the quorum engine exactly as it is on chain, and the shrunk
// repro must replay to a failure on the same engine.
func TestEngineEquivalenceCatchesBrokenKnob(t *testing.T) {
	cfg := Config{
		Seed: 5, Engine: repl.EngineQuorum, Duration: 800 * time.Millisecond,
		Profile: Profiles["flap"], BreakNoRevoke: true,
	}
	r := Run(cfg)
	if r.Passed() {
		t.Fatal("broken no-revoke knob not caught on the quorum engine")
	}
	if len(r.Shrunk) == 0 {
		t.Fatal("violating quorum campaign was not shrunk")
	}
	if r.Engine != repl.EngineQuorum {
		t.Fatalf("result engine = %q", r.Engine)
	}
	if Replay(cfg, r.Shrunk).Passed() {
		t.Fatal("shrunk schedule does not reproduce on the quorum engine")
	}
}

// TestQuorumProfilesClean: the storm and coldrestart profiles (the
// fault mixes that exercise promotion, cold recovery, and rejoin) stay
// clean on the quorum engine.
func TestQuorumProfilesClean(t *testing.T) {
	cases := []struct {
		name   string
		chains int
	}{{"flap", 0}, {"storm", 0}, {"coldrestart", 0}, {"migrate", 4}}
	if testing.Short() {
		cases = cases[:1]
	}
	for _, c := range cases {
		cfg := Config{
			Seed: 2, Engine: repl.EngineQuorum, Chains: c.chains,
			Duration: 500 * time.Millisecond, Profile: Profiles[c.name],
		}
		if r := Run(cfg); !r.Passed() {
			t.Errorf("quorum profile %s: %v", c.name, r.Violations[0])
		}
	}
}
