package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// runCLI runs the CLI with args and returns stdout, stderr and the error.
func runCLI(t *testing.T, args ...string) (string, string, error) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	err := run(args, &stdout, &stderr)
	return stdout.String(), stderr.String(), err
}

// quick are the flags that make a real experiment run fast enough for CI.
var quick = []string{"-scale", "0.1", "-reps", "1"}

func TestExperimentsFlagMatrix(t *testing.T) {
	cases := []struct {
		name    string
		args    []string
		wantOut []string // substrings required in stdout
		wantErr string   // substring of the expected error ("" = success)
	}{
		{
			name:    "list",
			args:    []string{"-list"},
			wantOut: []string{"fig3", "table1", "fig4a"},
		},
		{
			name:    "fig3-md",
			args:    append([]string{"-run", "fig3", "-format", "md"}, quick...),
			wantOut: []string{"### fig3", "| mu |", "gap_mean"},
		},
		{
			name:    "fig3-csv",
			args:    append([]string{"-run", "fig3", "-format", "csv"}, quick...),
			wantOut: []string{"mu,gap_mean,gap_ci95_lo"},
		},
		{name: "missing-run", args: nil, wantErr: "missing -run"},
		{name: "unknown-id", args: []string{"-run", "fig99"}, wantErr: "unknown id"},
		{
			name:    "unknown-format",
			args:    append([]string{"-run", "fig3", "-format", "xml"}, quick...),
			wantErr: "unknown format",
		},
		{name: "bad-flag", args: []string{"-no-such-flag"}, wantErr: "flag provided but not defined"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			stdout, stderr, err := runCLI(t, tc.args...)
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error()+stderr, tc.wantErr) {
					t.Fatalf("error = %v (stderr %q), want substring %q", err, stderr, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			for _, want := range tc.wantOut {
				if !strings.Contains(stdout, want) {
					t.Errorf("stdout missing %q:\n%s", want, stdout)
				}
			}
		})
	}
}

func TestExperimentsOutDir(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "results")
	stdout, stderr, err := runCLI(t, append([]string{"-run", "fig3", "-format", "csv", "-out", dir}, quick...)...)
	if err != nil {
		t.Fatal(err)
	}
	if stdout != "" {
		t.Errorf("stdout not empty with -out: %q", stdout)
	}
	if !strings.Contains(stderr, "fig3 -> ") {
		t.Errorf("stderr missing progress line: %q", stderr)
	}
	data, err := os.ReadFile(filepath.Join(dir, "fig3.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), "mu,gap_mean") {
		t.Errorf("unexpected file contents:\n%s", data)
	}
}

func TestExperimentsProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.out")
	mem := filepath.Join(dir, "mem.out")
	args := append([]string{"-run", "fig3", "-cpuprofile", cpu, "-memprofile", mem}, quick...)
	if _, _, err := runCLI(t, args...); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{cpu, mem} {
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatalf("profile not written: %v", err)
		}
		if fi.Size() == 0 {
			t.Errorf("%s is empty", path)
		}
	}
	// A bogus profile path must fail up front, not after the runs.
	if _, _, err := runCLI(t, append([]string{"-run", "fig3", "-cpuprofile", dir + "/no/such/dir/cpu.out"}, quick...)...); err == nil {
		t.Error("unwritable -cpuprofile accepted")
	}
}

func TestExperimentsDeterministicAcrossRuns(t *testing.T) {
	args := append([]string{"-run", "fig3", "-format", "csv", "-seed", "3"}, quick...)
	a, _, err := runCLI(t, args...)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := runCLI(t, args...)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("same seed produced different tables:\n%s\nvs\n%s", a, b)
	}
}
