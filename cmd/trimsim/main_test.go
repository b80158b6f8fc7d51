package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tcptrim/internal/experiment"
)

func TestRunList(t *testing.T) {
	if err := run([]string{"-list"}, io.Discard); err != nil {
		t.Fatal(err)
	}
}

// TestWriteList: every registry id appears with its description — the
// same metadata the service serves at GET /v1/runners.
func TestWriteList(t *testing.T) {
	var buf strings.Builder
	if err := writeList(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	ids := experiment.IDs()
	if len(lines) != len(ids) {
		t.Fatalf("-list printed %d lines for %d runners", len(lines), len(ids))
	}
	for i, info := range experiment.Runners() {
		if !strings.HasPrefix(lines[i], info.ID) {
			t.Errorf("line %d = %q, want prefix %q", i, lines[i], info.ID)
		}
		if !strings.Contains(lines[i], info.Description) {
			t.Errorf("line %d lacks the description of %s", i, info.ID)
		}
	}
}

// TestWriteListNamesOptions: a runner's -list line ends with the options
// it honors, so the flag help can point there instead of keeping lists.
func TestWriteListNamesOptions(t *testing.T) {
	var buf strings.Builder
	if err := writeList(&buf); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(buf.String(), "\n") {
		if strings.HasPrefix(line, "recoverysweep ") {
			if !strings.HasSuffix(line, "[aqm recovery]") {
				t.Errorf("recoverysweep line %q does not end with [aqm recovery]", line)
			}
			return
		}
	}
	t.Error("-list printed no recoverysweep line")
}

// TestRunRejectsBadOptions: the consolidated Options.Validate gate runs
// before any simulation.
func TestRunRejectsBadOptions(t *testing.T) {
	for _, args := range [][]string{
		{"-run", "fig4", "-aqm", "bogus"},
		{"-run", "fig4", "-recovery", "bogus"},
		{"-run", "fig4", "-fidelity", "bogus"},
		{"-run", "fig8", "-reps", "-1"},
	} {
		if err := run(args, io.Discard); err == nil {
			t.Errorf("run(%v) accepted invalid options", args)
		}
	}
}

func TestRunSingleExperiment(t *testing.T) {
	if err := run([]string{"-run", "fig2"}, io.Discard); err != nil {
		t.Fatal(err)
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	if err := run([]string{"-run", "nope"}, io.Discard); err == nil {
		t.Error("unknown experiment should error")
	}
}

func TestRunNoArgs(t *testing.T) {
	if err := run(nil, io.Discard); err == nil {
		t.Error("missing mode should error")
	}
}

func TestRunBadFlag(t *testing.T) {
	if err := run([]string{"-bogus"}, io.Discard); err == nil {
		t.Error("bad flag should error")
	}
	// There is no -shards: a command line that asks for shards fails
	// instead of running something else.
	if err := run([]string{"-run", "fig2", "-shards", "2"}, io.Discard); err == nil || !strings.Contains(err.Error(), "shards") {
		t.Errorf("-shards: err = %v, want an undefined-flag error", err)
	}
}

// TestRunProfiles: -cpuprofile and -memprofile write gzipped pprof files
// and leave the tables byte for byte as a run without them prints.
func TestRunProfiles(t *testing.T) {
	var plain, profiled bytes.Buffer
	if err := run([]string{"-run", "fig1"}, &plain); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.out"), filepath.Join(dir, "mem.out")
	if err := run([]string{"-run", "fig1", "-cpuprofile", cpu, "-memprofile", mem}, &profiled); err != nil {
		t.Fatal(err)
	}
	if plain.Len() == 0 || !bytes.Equal(plain.Bytes(), profiled.Bytes()) {
		t.Errorf("profiling changed the output:\n-- without --\n%s\n-- with --\n%s", plain.String(), profiled.String())
	}
	for _, name := range []string{cpu, mem} {
		b, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(b, []byte{0x1f, 0x8b}) {
			t.Errorf("%s is not a gzipped profile (%d bytes)", filepath.Base(name), len(b))
		}
	}
}
