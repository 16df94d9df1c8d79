package workload

import (
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
)

var updatePins = flag.Bool("update", false, "rewrite "+pinFile+" from the current engine")

// pinFile holds one hash of (result fingerprint, answer) per run of the
// full-size scenario matrix. Two runs inside one build agreeing cannot
// catch a change to the engine that alters every run the same way; a
// hash recorded from a known-good engine can.
const pinFile = "testdata/engine_pins.txt"

// enginePins checks runs against pinFile, or records them under -update.
type enginePins struct {
	want  map[string]string
	lines []string
}

func loadEnginePins(t *testing.T) *enginePins {
	p := &enginePins{want: map[string]string{}}
	if *updatePins {
		t.Cleanup(func() {
			if err := os.WriteFile(pinFile, []byte(strings.Join(p.lines, "\n")+"\n"), 0o644); err != nil {
				t.Error(err)
			}
		})
		return p
	}
	b, err := os.ReadFile(pinFile)
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(strings.TrimSpace(string(b)), "\n") {
		name, hash, _ := strings.Cut(line, " ")
		p.want[name] = hash
	}
	return p
}

func (p *enginePins) check(t *testing.T, name string, res *Result, answer string) {
	sum := sha256.Sum256([]byte(res.Fingerprint() + "\n" + answer))
	got := hex.EncodeToString(sum[:8])
	p.lines = append(p.lines, name+" "+got)
	if !*updatePins && p.want[name] != got {
		t.Errorf("run %s hashes to %s, pinned %q", name, got, p.want[name])
	}
}

// scale shrinks scenario streams in -short mode (the CI race smoke)
// while keeping every fault inside the stream.
func scale(sc Scenario, short bool) Scenario {
	if short {
		sc.N /= 4
	}
	return sc
}

// TestScenariosExactAndDeterministic is the acceptance matrix: every
// built-in scenario × app × shard count must (1) satisfy the exactness
// criterion — final per-shard query equals the brute-force top-s oracle
// over acknowledged updates — and (2) be deterministic: a second run
// with the same seed reproduces the identical result fingerprint and
// application answer. Outside -short mode every run, and a matrix of
// fuzzer-drawn scenarios, must also reproduce its hash in pinFile.
func TestScenariosExactAndDeterministic(t *testing.T) {
	var pins *enginePins
	if !testing.Short() {
		pins = loadEnginePins(t)
	}
	for _, base := range Builtin() {
		for _, app := range AppNames() {
			for _, shards := range []int{1, 2} {
				sc := scale(base, testing.Short())
				sc.Shards = shards
				name := sc.Name + "/" + app + "/shards=" + string(rune('0'+shards))
				t.Run(name, func(t *testing.T) {
					res1, ans1, err := RunNamed(sc, app)
					if err != nil {
						t.Fatal(err)
					}
					if err := res1.Err(); err != nil {
						t.Fatalf("exactness violated: %v", err)
					}
					res2, ans2, err := RunNamed(sc, app)
					if err != nil {
						t.Fatal(err)
					}
					if res1.Fingerprint() != res2.Fingerprint() {
						t.Errorf("nondeterministic result:\nrun1: %s\nrun2: %s", res1.Fingerprint(), res2.Fingerprint())
					}
					if ans1 != ans2 {
						t.Errorf("nondeterministic answer:\nrun1: %s\nrun2: %s", ans1, ans2)
					}
					if pins != nil {
						pins.check(t, name, res1, ans1)
					}
				})
			}
		}
	}
	if pins == nil {
		return
	}
	// Fuzzer-drawn schedules reach fault mixes (relay severing under
	// loss, restarts on trees) that the built-ins do not.
	for seed := uint64(1); seed <= 20; seed++ {
		base := FuzzScenario(DefaultFuzzConfig(), seed)
		for _, app := range FuzzApps() {
			for _, shards := range []int{1, 2} {
				sc := base
				sc.Shards = shards
				name := fmt.Sprintf("fuzz-%d/%s/shards=%d", seed, app, shards)
				t.Run(name, func(t *testing.T) {
					res, ans, err := RunNamed(sc, app)
					if err != nil {
						t.Fatal(err)
					}
					if err := res.Err(); err != nil {
						t.Fatalf("exactness violated: %v", err)
					}
					pins.check(t, name, res, ans)
				})
			}
		}
	}
}

// TestScenarioFaultsActuallyFire guards against schedules silently
// missing the stream: each built-in scenario's characteristic fault
// must leave its trace in the engine counters.
func TestScenarioFaultsActuallyFire(t *testing.T) {
	run := func(name string) *Result {
		sc, ok := Lookup(name)
		if !ok {
			t.Fatalf("scenario %q missing", name)
		}
		res, _, err := RunNamed(sc, "swor")
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	churn := run("churn")
	if churn.Engine.Crashes != 2 || churn.Engine.Joins != 1 {
		t.Errorf("churn: crashes=%d joins=%d, want 2/1", churn.Engine.Crashes, churn.Engine.Joins)
	}
	if churn.Engine.DroppedArrivals == 0 {
		t.Error("churn: no arrivals were dropped by the crashed sites")
	}
	restart := run("restart")
	if restart.Engine.Snapshots != 2 || restart.Engine.Restarts != 2 {
		t.Errorf("restart: snapshots=%d restarts=%d, want 2/2", restart.Engine.Snapshots, restart.Engine.Restarts)
	}
	if restart.Engine.AcksRolledBack == 0 {
		t.Error("restart: restart rolled back nothing — schedule missed the stream")
	}
	lossy := run("lossy")
	if lossy.Engine.UpLost == 0 && lossy.Engine.DownLost == 0 {
		t.Error("lossy: the lossy link lost nothing")
	}
	if lossy.Engine.LinkChanges != 2 {
		t.Errorf("lossy: link changes = %d, want 2", lossy.Engine.LinkChanges)
	}
}

// TestTraceReplayReproducesRun is the recorded-trace contract: record
// the workload of a scenario, replay the scenario from the trace, and
// the engine reproduces the generative run bit-for-bit.
func TestTraceReplayReproducesRun(t *testing.T) {
	sc, _ := Lookup("churn")
	sc.N = 1000
	live, ansLive, err := RunNamed(sc, "swor")
	if err != nil {
		t.Fatal(err)
	}
	tr := recordScenarioWorkload(t, sc)
	replayed, ansReplayed, err := RunNamed(WithTrace(sc, tr), "swor")
	if err != nil {
		t.Fatal(err)
	}
	if live.Fingerprint() != replayed.Fingerprint() {
		t.Errorf("trace replay diverged:\nlive:   %s\nreplay: %s", live.Fingerprint(), replayed.Fingerprint())
	}
	if ansLive != ansReplayed {
		t.Errorf("trace replay answer diverged:\nlive:   %s\nreplay: %s", ansLive, ansReplayed)
	}
}

// TestTreeScenarioFaultsActuallyFire is the tree-topology counterpart:
// the relay scenarios' severs, reparents and edge changes must leave
// their traces in the engine counters, and a severed edge must actually
// drop traffic.
func TestTreeScenarioFaultsActuallyFire(t *testing.T) {
	run := func(name string) *Result {
		sc, ok := Lookup(name)
		if !ok {
			t.Fatalf("scenario %q missing", name)
		}
		res, _, err := RunNamed(sc, "swor")
		if err != nil {
			t.Fatal(err)
		}
		if err := res.Err(); err != nil {
			t.Fatalf("%s: exactness violated: %v", name, err)
		}
		return res
	}
	sever := run("tree-sever")
	if sever.Engine.Severs != 2 || sever.Engine.Reparents != 2 {
		t.Errorf("tree-sever: severs=%d reparents=%d, want 2/2", sever.Engine.Severs, sever.Engine.Reparents)
	}
	if sever.Engine.SeveredUp == 0 {
		t.Error("tree-sever: severed edges dropped no upstream traffic — schedule missed the stream")
	}
	lossy := run("tree-lossy")
	if lossy.Engine.EdgeChanges != 1 {
		t.Errorf("tree-lossy: edge changes = %d, want 1", lossy.Engine.EdgeChanges)
	}
	if lossy.Engine.Snapshots != 1 || lossy.Engine.Restarts != 1 {
		t.Errorf("tree-lossy: snapshots=%d restarts=%d, want 1/1", lossy.Engine.Snapshots, lossy.Engine.Restarts)
	}
	if lossy.Engine.UpLost == 0 {
		t.Error("tree-lossy: the lossy links lost nothing")
	}
}

// TestRelayFilteringActuallyHappens confirms the tree engine's filter
// machines are not pass-through: on a scenario with enough stream
// behind a relay, some upstream messages must be swallowed by the
// threshold pre-filter or the top-s union merge, and exactness must
// hold regardless (the oracle is delivery-relative).
func TestRelayFilteringActuallyHappens(t *testing.T) {
	sc, ok := Lookup("tree-sever")
	if !ok {
		t.Fatal("scenario tree-sever missing")
	}
	res, _, err := RunNamed(sc, "swor")
	if err != nil {
		t.Fatal(err)
	}
	if res.Engine.RelayFiltered == 0 {
		t.Error("relay machines filtered nothing — the tree is a pass-through")
	}
}

// TestRunNamedUnknownApp pins the app-name boundary of the engine's
// by-name entry point.
func TestRunNamedUnknownApp(t *testing.T) {
	sc, _ := Lookup("lossy")
	_, _, err := RunNamed(sc, "bogus")
	if err == nil || !strings.Contains(err.Error(), "unknown app") {
		t.Errorf("bogus app accepted: %v", err)
	}
}

// TestScheduleValidate is the table of Validate's rejection paths: site
// ranges, liveness bookkeeping (no crashing a dead site, no joining a
// live one), snapshot/restart ordering, horizon clipping, link-model
// sanity, and — with a tree context — tier/node ranges and severed-edge
// alternation.
func TestScheduleValidate(t *testing.T) {
	flat := ScheduleContext{K: 4}
	horizon := ScheduleContext{K: 4, Horizon: 2}
	tree := ScheduleContext{K: 8, Fanout: 2, Depth: 2} // tier sizes [2 4]
	cases := []struct {
		name string
		sch  Schedule
		ctx  ScheduleContext
		ok   bool
	}{
		{"empty", nil, flat, true},
		{"crash+join", Schedule{{At: 1, Kind: SiteCrash, Site: 0}, {At: 2, Kind: SiteJoin, Site: 0}}, flat, true},
		{"site out of range", Schedule{{At: 1, Kind: SiteCrash, Site: 4}}, flat, false},
		{"negative site", Schedule{{At: 1, Kind: SiteCrash, Site: -1}}, flat, false},
		{"negative time", Schedule{{At: -1, Kind: CoordSnapshot}}, flat, false},
		{"crash a dead site", Schedule{{At: 1, Kind: SiteCrash, Site: 2}, {At: 2, Kind: SiteCrash, Site: 2}}, flat, false},
		{"join a live site", Schedule{{At: 1, Kind: SiteJoin, Site: 2}}, flat, false},
		{"crash join crash", Schedule{{At: 1, Kind: SiteCrash, Site: 2}, {At: 2, Kind: SiteJoin, Site: 2}, {At: 3, Kind: SiteCrash, Site: 2}}, flat, true},
		{"restart without snapshot", Schedule{{At: 1, Kind: CoordRestart}}, flat, false},
		{"restart after snapshot, out of order in slice", Schedule{{At: 2, Kind: CoordRestart}, {At: 1, Kind: CoordSnapshot}}, flat, true},
		{"bad link model", Schedule{{At: 1, Kind: LinkSet, Up: badLink()}}, flat, false},
		{"inside horizon", Schedule{{At: 1.9, Kind: CoordSnapshot}}, horizon, true},
		{"at horizon", Schedule{{At: 2, Kind: CoordSnapshot}}, horizon, false},
		{"after horizon", Schedule{{At: 3, Kind: SiteCrash, Site: 0}}, horizon, false},
		{"sever+reparent", Schedule{{At: 1, Kind: SeverParent, Tier: 1, Node: 3}, {At: 2, Kind: Reparent, Tier: 1, Node: 3}}, tree, true},
		{"tree fault on flat topology", Schedule{{At: 1, Kind: SeverParent}}, flat, false},
		{"tier out of range", Schedule{{At: 1, Kind: SeverParent, Tier: 2}}, tree, false},
		{"node out of range", Schedule{{At: 1, Kind: SeverParent, Tier: 0, Node: 2}}, tree, false},
		{"sever a severed edge", Schedule{{At: 1, Kind: SeverParent, Tier: 1, Node: 1}, {At: 2, Kind: SeverParent, Tier: 1, Node: 1}}, tree, false},
		{"reparent an attached edge", Schedule{{At: 1, Kind: Reparent, Tier: 0, Node: 0}}, tree, false},
		{"edge link set", Schedule{{At: 1, Kind: EdgeLinkSet, Tier: 0, Node: 1}}, tree, true},
		{"edge link set bad model", Schedule{{At: 1, Kind: EdgeLinkSet, Tier: 0, Node: 1, Down: badLink()}}, tree, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := c.sch.Validate(c.ctx)
			if (err == nil) != c.ok {
				t.Errorf("Validate = %v, want ok=%v", err, c.ok)
			}
		})
	}
}

// TestReplayDeterministicAcrossGOMAXPROCS pins that chaos-run
// determinism does not depend on the scheduler: record a chaos run's
// workload, replay the scenario from the trace at GOMAXPROCS 1 and 4,
// and demand bit-identical samples and statistics — both between the
// two replays and against the generative run. The engine is
// single-goroutine by construction, so a divergence here means some
// state machine leaked wall-clock or scheduler nondeterminism into the
// virtual-clock run.
func TestReplayDeterministicAcrossGOMAXPROCS(t *testing.T) {
	sc, _ := Lookup("tree-lossy")
	sc.N = 1500
	sc.Shards = 2
	live, ansLive, err := RunNamed(sc, "window")
	if err != nil {
		t.Fatal(err)
	}
	if err := live.Err(); err != nil {
		t.Fatalf("exactness violated: %v", err)
	}
	tr := recordScenarioWorkload(t, sc)
	for _, procs := range []int{1, 4} {
		prev := runtime.GOMAXPROCS(procs)
		replayed, ansReplayed, err := RunNamed(WithTrace(sc, tr), "window")
		runtime.GOMAXPROCS(prev)
		if err != nil {
			t.Fatalf("GOMAXPROCS=%d: %v", procs, err)
		}
		if live.Fingerprint() != replayed.Fingerprint() {
			t.Errorf("GOMAXPROCS=%d: trace replay diverged from the live run:\nlive:   %s\nreplay: %s",
				procs, live.Fingerprint(), replayed.Fingerprint())
		}
		if ansLive != ansReplayed {
			t.Errorf("GOMAXPROCS=%d: answer diverged:\nlive:   %s\nreplay: %s", procs, ansLive, ansReplayed)
		}
	}
}

// TestRestartMidFlightIsExact stresses the nastiest interleaving: a
// coordinator restart while messages are in flight on a slow link, so
// deliveries from before the snapshot arrive after the restore. The
// ack-oracle criterion must still hold.
func TestRestartMidFlightIsExact(t *testing.T) {
	sc, _ := Lookup("restart")
	sc.Up = lateLink()
	sc.Down = lateLink()
	for _, shards := range []int{1, 2} {
		sc.Shards = shards
		res, _, err := RunNamed(sc, "swor")
		if err != nil {
			t.Fatal(err)
		}
		if err := res.Err(); err != nil {
			t.Errorf("shards=%d: %v", shards, err)
		}
	}
}
