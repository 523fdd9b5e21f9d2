package des

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/core"
)

func faultConfig() Config {
	cfg := baseConfig()
	cfg.Faults = FaultConfig{Enabled: true, MeanUp: 60, MeanDown: 10}
	return cfg
}

func TestFaultInjectionBasics(t *testing.T) {
	m, err := Run(faultConfig(), rand.New(rand.NewSource(21)))
	if err != nil {
		t.Fatal(err)
	}
	if m.Crashes == 0 {
		t.Fatal("no crashes injected over a 200-unit horizon with MTBF 60")
	}
	if m.Repairs > m.Crashes {
		t.Fatalf("repairs %d exceed crashes %d", m.Repairs, m.Crashes)
	}
	if len(m.BlastRadii) != m.Crashes {
		t.Fatalf("one blast radius per crash: %d radii, %d crashes", len(m.BlastRadii), m.Crashes)
	}
	affected := 0
	for _, b := range m.BlastRadii {
		if b < 0 {
			t.Fatalf("negative blast radius %d", b)
		}
		affected += b
	}
	// A session that still meets ρ on its surviving replicas is affected but
	// not re-augmented.
	if m.Reaugmented == 0 || m.Reaugmented+m.ReaugFailed > affected {
		t.Fatalf("reaugmented %d + failed %d vs Σ blast radii %d", m.Reaugmented, m.ReaugFailed, affected)
	}
	// The simulator finds dropped sessions by their missing placements; the
	// service counts the ones it declared lost. The two must agree.
	if m.DroppedSessions != m.ReaugFailed {
		t.Fatalf("dropped %d != sessions the service declared lost %d", m.DroppedSessions, m.ReaugFailed)
	}
	if m.SLOViolationTime < 0 {
		t.Fatalf("negative SLO-violation time %v", m.SLOViolationTime)
	}
	if len(m.ServedByStage) == 0 {
		t.Fatal("no solves attributed to a fallback stage")
	}
}

func TestFaultLedgerConservation(t *testing.T) {
	// Crashes destroy instances and zero residuals mid-run; repairs and the
	// end-of-run releases must still return the ledger to its initial state
	// (Run fails otherwise).
	for seed := int64(30); seed < 34; seed++ {
		if _, err := Run(faultConfig(), rand.New(rand.NewSource(seed))); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

func TestFaultDeterminism(t *testing.T) {
	// The full metrics struct — blast radii trajectory and per-stage serve
	// counts included — must be a pure function of the seed.
	a, err := Run(faultConfig(), rand.New(rand.NewSource(40)))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(faultConfig(), rand.New(rand.NewSource(40)))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("fault-injected runs with one seed diverged:\n%+v\nvs\n%+v", a, b)
	}
}

func TestSolverExhaustionBlocksNotAborts(t *testing.T) {
	// A chain whose every stage fails must degrade each arrival to Blocked
	// instead of aborting the whole run — the fail-soft contract.
	cfg := baseConfig()
	cfg.Horizon = 60
	cfg.Warmup = 0
	broken := core.NewSolverFunc("AlwaysBroken", func(*core.Instance, *rand.Rand) (*core.Result, error) {
		return nil, fmt.Errorf("induced solver failure")
	})
	cfg.Solver = core.Fallback("AlwaysBroken", core.Stage(broken, 0))
	m, err := Run(cfg, rand.New(rand.NewSource(50)))
	if err != nil {
		t.Fatalf("run aborted on solver failure: %v", err)
	}
	if m.Arrivals == 0 {
		t.Fatal("no arrivals")
	}
	if m.Blocked != m.Arrivals || m.Accepted != 0 {
		t.Fatalf("every arrival should block: arrivals %d, blocked %d, accepted %d", m.Arrivals, m.Blocked, m.Accepted)
	}
}

func TestILPBudgetDegradation(t *testing.T) {
	// The acceptance scenario: crash events on, the ILP on a tight wall-clock
	// budget, and the run must complete with every solve attributed to some
	// stage of the chain.
	cfg := faultConfig()
	cfg.Horizon = 60
	cfg.Warmup = 5
	cfg.Solver = chain(t, "ILP@50ms,Heuristic,Greedy")
	m, err := Run(cfg, rand.New(rand.NewSource(60)))
	if err != nil {
		t.Fatal(err)
	}
	if m.Accepted == 0 {
		t.Fatal("budgeted chain accepted nothing")
	}
	served := 0
	for stage, n := range m.ServedByStage {
		if stage == "" {
			t.Fatal("solve attributed to an unnamed stage")
		}
		served += n
	}
	if served == 0 {
		t.Fatal("no solves attributed to any stage")
	}
}

func TestFaultsOffMatchesBaseline(t *testing.T) {
	// With injection disabled the simulator must reproduce the fault-free
	// trajectory exactly: zero fault metrics and identical core aggregates.
	plain, err := Run(baseConfig(), rand.New(rand.NewSource(70)))
	if err != nil {
		t.Fatal(err)
	}
	if plain.Crashes != 0 || plain.Repairs != 0 || len(plain.BlastRadii) != 0 || plain.DroppedSessions != 0 {
		t.Fatalf("fault metrics nonzero without injection: %+v", plain)
	}
	off := faultConfig()
	off.Faults.Enabled = false
	disabled, err := Run(off, rand.New(rand.NewSource(70)))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, disabled) {
		t.Fatalf("a disabled fault config changed the run:\n%+v\nvs\n%+v", plain, disabled)
	}
}

func TestFaultConfigValidation(t *testing.T) {
	cfg := faultConfig()
	cfg.Faults.MeanUp = 0
	if _, err := Run(cfg, rand.New(rand.NewSource(1))); err == nil {
		t.Fatal("zero MeanUp accepted")
	}
	cfg = faultConfig()
	cfg.Faults.MeanDown = -1
	if _, err := Run(cfg, rand.New(rand.NewSource(1))); err == nil {
		t.Fatal("negative MeanDown accepted")
	}
	disabled := baseConfig()
	disabled.Faults = FaultConfig{Enabled: false, MeanUp: -1, MeanDown: -1}
	if _, err := Run(disabled, rand.New(rand.NewSource(1))); err != nil {
		t.Fatalf("disabled fault config must not be validated: %v", err)
	}
}
