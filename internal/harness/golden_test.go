package harness

// Golden end-to-end regression net: two small benchmarks through the full
// fixed-seed flow (generate → place → seed sizes → gsg / GS / gsg+GS →
// verify) with every deterministic Row field pinned. The whole stack —
// generator profiles, annealing placer, load seeding, supergate
// extraction, move scoring, incremental timing, the regression guard — is
// deterministic by contract, so any diff here is a behavioral change that
// would silently reshape Table 1. Update the constants only for an
// *intentional* optimizer change, and say so in the commit.
//
// The goldens are pinned to amd64 and the test skips elsewhere: the
// optimizer makes discrete accept/order decisions on float comparisons,
// so an architecture that contracts multiply-adds differently (arm64 FMA)
// can legitimately take a different — equally valid — trajectory that no
// numeric tolerance absorbs. Within one architecture the flow is
// deterministic; the 1e-6 relative tolerance on float fields only guards
// against printf-rounding-style noise, not behavior.

import (
	"math"
	"runtime"
	"strings"
	"testing"
)

type goldenRow struct {
	gates                  int
	initNS                 float64
	gsgPct, gsPct, bothPct float64
	gsAreaPct, bothAreaPct float64
	covPct                 float64
	l, red                 int
}

var goldenRows = map[string]goldenRow{
	"c432": {
		gates:  291,
		initNS: 7.037512853,
		gsgPct: 0.981919733, gsPct: 8.335579844, bothPct: 8.571546271,
		gsAreaPct: -11.280232697, bothAreaPct: -7.801729290,
		covPct: 30.584192440, l: 8, red: 10,
	},
	"alu2": {
		gates:  516,
		initNS: 19.473061959,
		gsgPct: 3.695776781, gsPct: 5.059429900, bothPct: 7.196352996,
		gsAreaPct: -10.622540649, bothAreaPct: -8.913059618,
		covPct: 25.387596899, l: 8, red: 15,
	},
}

// goldenConfig is the pinned flow configuration the constants were
// recorded under. Workers is 1 for clarity only — scoring is bit-identical
// at every worker count (see internal/opt/parallel_test.go).
func goldenConfig() Config {
	return Config{PlaceSeed: 1, PlaceMoves: 10, MaxIters: 4, VerifyRounds: 8, Workers: 1}
}

func closeRel(got, want float64) bool {
	if got == want {
		return true
	}
	scale := math.Max(math.Abs(want), 1)
	return math.Abs(got-want) <= 1e-6*scale
}

// goldenRegionedRows pin the same two benchmarks under Regions: 3, the
// rapids.WithRegions restart rounds.
var goldenRegionedRows = map[string]goldenRow{
	"c432": {
		gates:  291,
		initNS: 7.037512853,
		gsgPct: 0.981919733, gsPct: 8.108980749, bothPct: 8.571546271,
		gsAreaPct: -10.786149739, bothAreaPct: -7.801729290,
		covPct: 30.584192440, l: 8, red: 10,
	},
	"alu2": {
		gates:  516,
		initNS: 19.473061959,
		gsgPct: 3.671826124, gsPct: 5.059429900, bothPct: 6.772848478,
		gsAreaPct: -10.229044472, bothAreaPct: -8.311678670,
		covPct: 25.387596899, l: 8, red: 15,
	},
}

func TestGoldenRows(t *testing.T) {
	checkGoldenRows(t, goldenConfig(), goldenRows)
}

func TestGoldenRowsRegioned(t *testing.T) {
	cfg := goldenConfig()
	cfg.Regions = 3
	checkGoldenRows(t, cfg, goldenRegionedRows)
}

func checkGoldenRows(t *testing.T, cfg Config, rows map[string]goldenRow) {
	t.Helper()
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden rows are recorded on amd64; %s may take a different valid optimizer trajectory", runtime.GOARCH)
	}
	for name, want := range rows {
		row, err := RunBenchmark(name, cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !row.Verified {
			t.Fatalf("%s: verification failed", name)
		}
		if row.Gates != want.gates {
			t.Errorf("%s: Gates = %d, golden %d", name, row.Gates, want.gates)
		}
		for _, c := range []struct {
			field string
			got   float64
			want  float64
		}{
			{"InitNS", row.InitNS, want.initNS},
			{"GsgPct", row.GsgPct, want.gsgPct},
			{"GSPct", row.GSPct, want.gsPct},
			{"GsgGSPct", row.GsgGSPct, want.bothPct},
			{"GSAreaPct", row.GSAreaPct, want.gsAreaPct},
			{"GsgGSAreaPct", row.GsgGSAreaPct, want.bothAreaPct},
			{"CovPct", row.CovPct, want.covPct},
		} {
			if !closeRel(c.got, c.want) {
				t.Errorf("%s: %s = %.9f, golden %.9f — optimizer behavior drifted; "+
					"update the golden only for an intentional change",
					name, c.field, c.got, c.want)
			}
		}
		if row.L != want.l {
			t.Errorf("%s: L = %d, golden %d", name, row.L, want.l)
		}
		if row.Red != want.red {
			t.Errorf("%s: Red = %d, golden %d", name, row.Red, want.red)
		}
	}
}

func TestRunAllCollectsErrors(t *testing.T) {
	cfg := Config{
		Benchmarks: []string{"c432", "no-such-circuit"},
		PlaceMoves: 5, MaxIters: 1, VerifyRounds: -1,
	}
	rows, err := RunAll(cfg)
	if err != nil {
		t.Fatalf("RunAll must not abort on one bad benchmark: %v", err)
	}
	if len(rows) != 2 {
		t.Fatalf("want 2 rows (failures included), got %d", len(rows))
	}
	if rows[0].Err != "" || !rows[0].Verified {
		t.Fatalf("good row polluted: %+v", rows[0])
	}
	if rows[1].Name != "no-such-circuit" || rows[1].Err == "" || rows[1].Verified {
		t.Fatalf("failed row not recorded: %+v", rows[1])
	}
	table := FormatTable(rows)
	for _, want := range []string{" ver", " ok", " FAIL", "# no-such-circuit:"} {
		if !strings.Contains(table, want) {
			t.Errorf("table missing %q:\n%s", want, table)
		}
	}
	// All-failed runs still return the first error.
	if _, err := RunAll(Config{Benchmarks: []string{"nope"}, VerifyRounds: -1}); err == nil {
		t.Fatal("all-failed RunAll should surface an error")
	}
}
