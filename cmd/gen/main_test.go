package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/task"
)

// runGen runs the CLI with args and returns stdout, stderr and the error.
func runGen(t *testing.T, args ...string) (string, string, error) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	err := run(args, &stdout, &stderr)
	return stdout.String(), stderr.String(), err
}

func TestGenFlagMatrix(t *testing.T) {
	cases := []struct {
		name    string
		args    []string
		wantN   int
		wantM   int
		wantErr string // substring of the expected error ("" = success)
	}{
		{name: "defaults-small", args: []string{"-n", "12", "-m", "3"}, wantN: 12, wantM: 3},
		{name: "two-machine", args: []string{"-n", "8", "-two-machine"}, wantN: 8, wantM: 2},
		{name: "scenario-ehe", args: []string{"-n", "10", "-m", "2", "-scenario", "earliest-high-efficient"}, wantN: 10, wantM: 2},
		{name: "preset-fig3", args: []string{"-n", "10", "-m", "2", "-preset", "fig3", "-mu", "12"}, wantN: 10, wantM: 2},
		{name: "preset-fig4", args: []string{"-n", "10", "-m", "2", "-preset", "fig4"}, wantN: 10, wantM: 2},
		{name: "preset-fig5", args: []string{"-n", "10", "-m", "2", "-preset", "fig5", "-beta", "0.4"}, wantN: 10, wantM: 2},
		{name: "preset-fig6a-forces-two-machine", args: []string{"-n", "10", "-m", "5", "-preset", "fig6a"}, wantN: 10, wantM: 2},
		{name: "preset-fig6b", args: []string{"-n", "10", "-preset", "fig6b"}, wantN: 10, wantM: 2},
		{name: "removed-preset-xl", args: []string{"-preset", "xl"}, wantErr: "unknown preset"},
		{name: "bad-scenario", args: []string{"-scenario", "nope"}, wantErr: "unknown scenario"},
		{name: "bad-preset", args: []string{"-preset", "fig99"}, wantErr: "unknown preset"},
		{name: "bad-flag", args: []string{"-no-such-flag"}, wantErr: "flag provided but not defined"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			stdout, stderr, err := runGen(t, tc.args...)
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error()+stderr, tc.wantErr) {
					t.Fatalf("error = %v (stderr %q), want substring %q", err, stderr, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			in, err := task.ReadJSON(strings.NewReader(stdout))
			if err != nil {
				t.Fatalf("output is not a valid instance: %v", err)
			}
			if in.N() != tc.wantN || in.M() != tc.wantM {
				t.Errorf("instance n=%d m=%d, want n=%d m=%d", in.N(), in.M(), tc.wantN, tc.wantM)
			}
			if !strings.Contains(stderr, "generated n=") {
				t.Errorf("stderr missing summary line: %q", stderr)
			}
		})
	}
}

func TestGenDeterministicBySeed(t *testing.T) {
	a, _, err := runGen(t, "-n", "9", "-m", "2", "-seed", "7")
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := runGen(t, "-n", "9", "-m", "2", "-seed", "7")
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("same seed produced different instances")
	}
	c, _, err := runGen(t, "-n", "9", "-m", "2", "-seed", "8")
	if err != nil {
		t.Fatal(err)
	}
	if a == c {
		t.Error("different seeds produced identical instances")
	}
}

func TestGenOutFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "inst.json")
	stdout, _, err := runGen(t, "-n", "6", "-m", "2", "-out", path)
	if err != nil {
		t.Fatal(err)
	}
	if stdout != "" {
		t.Errorf("stdout not empty with -out: %q", stdout)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = f.Close() }() // read-only handle
	in, err := task.ReadJSON(f)
	if err != nil {
		t.Fatalf("file is not a valid instance: %v", err)
	}
	if in.N() != 6 {
		t.Errorf("n = %d, want 6", in.N())
	}
}
