package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/experiment"
)

var update = flag.Bool("update", false,
	"rewrite testdata/artifacts.sha256 from the current code, logging each changed row")

const artifactsPath = "testdata/artifacts.sha256"

// artifactArgs are the settings every pinned artifact shares: the
// paper-sweep scale, rendered in every format.
var artifactArgs = []string{"-horizon", "4000", "-seed", "2", "-format", "all"}

// artifactRuns lists the sdasim invocations behind artifacts.sha256,
// each writing into its own subdirectory of dir ("" for the top
// level): every registered experiment at one replication, one
// adaptive-replication run and one 1024-node topology override.
func artifactRuns(dir string) (runs [][]string) {
	out := func(sub string, args ...string) {
		runs = append(runs, slices.Concat(artifactArgs, args, []string{"-out", filepath.Join(dir, sub)}))
	}
	for _, id := range experiment.IDs() {
		out("", "-exp", id, "-reps", "1")
	}
	out("adaptive", "-exp", "abl-m", "-targetci", "0.5", "-maxreps", "4")
	out("nodes1024", "-exp", "abl-hot", "-nodes", "1024", "-horizon", "600", "-reps", "1")
	return runs
}

// hashTree returns the sha256 of every file under dir, keyed by its
// slash-separated path relative to dir.
func hashTree(t *testing.T, dir string) map[string]string {
	t.Helper()
	sums := make(map[string]string)
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(dir, path)
		if err != nil {
			return err
		}
		sum := sha256.Sum256(data)
		sums[filepath.ToSlash(rel)] = hex.EncodeToString(sum[:])
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return sums
}

// pinnedRow is one "<sha256>  <path>" line of artifacts.sha256, the
// format sha256sum -c reads.
type pinnedRow struct{ sum, path string }

func readPinned(t *testing.T) []pinnedRow {
	t.Helper()
	f, err := os.Open(artifactsPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var rows []pinnedRow
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		sum, path, ok := strings.Cut(sc.Text(), "  ")
		if !ok {
			t.Fatalf("%s: malformed line %q", artifactsPath, sc.Text())
		}
		rows = append(rows, pinnedRow{sum, path})
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return rows
}

// reconcile compares the hashes of a run with the pinned rows. It
// returns the file text that pins got — the existing rows in their
// order, without rows whose file is gone, then new files sorted — and
// one line per row that differs.
func reconcile(rows []pinnedRow, got map[string]string) (text string, diffs []string) {
	var b strings.Builder
	seen := make(map[string]bool)
	for _, r := range rows {
		seen[r.path] = true
		sum, ok := got[r.path]
		if !ok {
			diffs = append(diffs, r.path+" is pinned but no run writes it")
			continue
		}
		if sum != r.sum {
			diffs = append(diffs, fmt.Sprintf("%s: sha256 %s, pinned %s", r.path, sum, r.sum))
		}
		b.WriteString(sum + "  " + r.path + "\n")
	}
	var added []string
	for path := range got {
		if !seen[path] {
			added = append(added, path)
		}
	}
	slices.Sort(added)
	for _, path := range added {
		diffs = append(diffs, path+" has no row in "+artifactsPath)
		b.WriteString(got[path] + "  " + path + "\n")
	}
	return b.String(), diffs
}

// TestArtifactsMatchPinnedHashes regenerates every pinned artifact in
// process and compares its bytes with testdata/artifacts.sha256, which
// must hold exactly one row per file: a new experiment needs a new row
// (go test ./cmd/sdasim -run Artifacts -update writes it). A second
// pass renders every experiment in one invocation behind -cache-mb, so
// the figures that share Baseline cells (fig2a, fig2b, fig3 and the
// ablations) render from cache hits; it must produce the same bytes.
func TestArtifactsMatchPinnedHashes(t *testing.T) {
	dir := t.TempDir()
	for _, args := range artifactRuns(dir) {
		if err := run(args, io.Discard); err != nil {
			t.Fatalf("sdasim %s: %v", strings.Join(args, " "), err)
		}
	}
	got := hashTree(t, dir)
	text, diffs := reconcile(readPinned(t), got)
	if *update {
		for _, d := range diffs {
			t.Log(d)
		}
		if err := os.WriteFile(artifactsPath, []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	for _, d := range diffs {
		t.Error(d)
	}

	cached := t.TempDir()
	args := slices.Concat(artifactArgs, []string{"-exp", "all", "-reps", "1", "-cache-mb", "64", "-out", cached})
	if err := run(args, io.Discard); err != nil {
		t.Fatal(err)
	}
	viaCache := hashTree(t, cached)
	if len(viaCache) != len(experiment.IDs()) {
		t.Errorf("-exp all -cache-mb wrote %d files, want %d", len(viaCache), len(experiment.IDs()))
	}
	for path, sum := range viaCache {
		if sum != got[path] {
			t.Errorf("%s under -cache-mb: sha256 %s, uncached %s", path, sum, got[path])
		}
	}
}
