package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

var update = flag.Bool("update", false,
	"rewrite testdata/golden_csv.sha256 from the current code, logging each changed row")

const goldenPath = "testdata/golden_csv.sha256"

// goldenRuns lists the sdascn invocations behind golden_csv.sha256, by
// the file each writes, in the file's order: a 1024-node burst, a
// 1024-node generated churn, a 64-node EQF ramp and the 6-node storm,
// whose lognormal demands make its bytes depend on the host's math.Exp
// (ROADMAP item 3).
var goldenRuns = []struct {
	file string
	args []string
}{
	{"burst.csv", []string{"-preset", "burst", "-nodes", "1024", "-horizon", "500", "-reps", "2"}},
	{"churn.csv", []string{"-preset", "churn", "-nodes", "1024", "-churn-rate", "2", "-horizon", "500", "-reps", "1"}},
	{"ramp.csv", []string{"-preset", "ramp", "-nodes", "64", "-horizon", "4000", "-reps", "2", "-ssp", "EQF"}},
	{"storm.csv", []string{"-preset", "storm", "-horizon", "20000", "-reps", "2"}},
}

// readGolden returns golden_csv.sha256's rows as file → sha256.
func readGolden(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sums := make(map[string]string)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		sum, file, ok := strings.Cut(sc.Text(), "  ")
		if !ok {
			t.Fatalf("%s: malformed line %q", goldenPath, sc.Text())
		}
		sums[file] = sum
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return sums
}

// TestGoldenCSVsMatchPinnedHashes runs every pinned scenario in process
// and compares each CSV's sha256 with testdata/golden_csv.sha256, which
// must hold exactly one row per run. go test ./cmd/sdascn -run Golden
// -update (flag after the package) rewrites the file and logs each row
// that changed. The file still reads with sha256sum -c.
func TestGoldenCSVsMatchPinnedHashes(t *testing.T) {
	pinned := readGolden(t)
	report := t.Errorf
	if *update {
		report = t.Logf
	}
	dir := t.TempDir()
	var text strings.Builder
	for _, g := range goldenRuns {
		path := filepath.Join(dir, g.file)
		args := slices.Concat(g.args, []string{"-quiet", "-out", path})
		if err := run(args, io.Discard, io.Discard); err != nil {
			t.Fatalf("sdascn %s: %v", strings.Join(args, " "), err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		raw := sha256.Sum256(data)
		sum := hex.EncodeToString(raw[:])
		text.WriteString(sum + "  " + g.file + "\n")
		want, ok := pinned[g.file]
		delete(pinned, g.file)
		switch {
		case !ok:
			report("%s has no row in %s", g.file, goldenPath)
		case sum != want:
			report("%s: sha256 %s, pinned %s", g.file, sum, want)
		}
	}
	for file := range pinned {
		report("%s is pinned but no run writes it", file)
	}
	if *update {
		if err := os.WriteFile(goldenPath, []byte(text.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
