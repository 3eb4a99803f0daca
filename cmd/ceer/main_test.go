package main

import (
	"context"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ceer"
)

func TestParseConfig(t *testing.T) {
	cases := []struct {
		in     string
		family string
		k      int
		ok     bool
	}{
		{"2xP3", "P3", 2, true},
		{"P3", "P3", 1, true},
		{"4xg4", "G4", 4, true}, // case-insensitive family
		{"8xP2", "P2", 8, true},
		{"1xG3", "G3", 1, true},
		{"5xP3", "", 0, false}, // beyond p3.8xlarge
		{"zxP3", "", 0, false}, // bad count
		{"2xZZ", "", 0, false}, // bad family
		{"", "", 0, false},
	}
	for _, c := range cases {
		cfg, err := parseConfig(c.in)
		if c.ok {
			if err != nil {
				t.Errorf("parseConfig(%q) failed: %v", c.in, err)
				continue
			}
			if cfg.GPU.Family() != c.family || cfg.K != c.k {
				t.Errorf("parseConfig(%q) = %s, want %dx%s", c.in, cfg, c.k, c.family)
			}
		} else if err == nil {
			t.Errorf("parseConfig(%q) should fail", c.in)
		}
	}
}

func TestLoadOrTrainMissingFile(t *testing.T) {
	res := addResilienceFlags(flag.NewFlagSet("test", flag.ContinueOnError))
	if _, err := loadOrTrain(context.Background(), "/nonexistent/models.json", res, 1, 1); err == nil {
		t.Error("missing models file should error")
	}
}

// quietStdout redirects os.Stdout to /dev/null for the duration of the
// test, keeping table and JSON output out of the test logs.
func quietStdout(t *testing.T) {
	t.Helper()
	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	orig := os.Stdout
	os.Stdout = devnull
	t.Cleanup(func() {
		os.Stdout = orig
		_ = devnull.Close() // test cleanup; the close error is irrelevant
	})
}

func TestCmdZoo(t *testing.T) {
	quietStdout(t)
	if err := cmdZoo(); err != nil {
		t.Fatal(err)
	}
}

func TestRenderExplanationSmoke(t *testing.T) {
	quietStdout(t)
	sys, err := ceer.Train(ceer.TrainOptions{Seed: 4, ProfileIterations: 20, CommIterations: 5})
	if err != nil {
		t.Fatal(err)
	}
	g, err := ceer.BuildModel("alexnet", 8)
	if err != nil {
		t.Fatal(err)
	}
	comp, err := ceer.Compile(sys.Predictor(), g)
	if err != nil {
		t.Fatal(err)
	}
	cfg, _ := ceer.Config("P3", 1) // known-valid config; the error path has its own test
	if err := renderExplanation(comp, g, cfg); err != nil {
		t.Fatal(err)
	}
	if err := renderNodeExplanation(comp, g, cfg.GPU, 3); err != nil {
		t.Fatal(err)
	}
}

// TestRecommendRendersAllInfeasible: with every candidate over budget,
// `ceer recommend` still prints the full candidate table, then fails
// with the no-feasible error.
func TestRecommendRendersAllInfeasible(t *testing.T) {
	sys, err := ceer.Train(ceer.TrainOptions{Seed: 4, ProfileIterations: 20, CommIterations: 5})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	models := filepath.Join(dir, "models.json")
	f, err := os.Create(models)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Save(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	out, err := os.Create(filepath.Join(dir, "stdout"))
	if err != nil {
		t.Fatal(err)
	}
	orig := os.Stdout
	os.Stdout = out
	err = cmdRecommend([]string{"-models", models, "-model", "alexnet", "-hourly-budget", "0.001"})
	os.Stdout = orig
	if cerr := out.Close(); cerr != nil {
		t.Fatal(cerr)
	}
	if !errors.Is(err, ceer.ErrNoFeasible) {
		t.Fatalf("err = %v, want ErrNoFeasible", err)
	}
	table, rerr := os.ReadFile(out.Name())
	if rerr != nil {
		t.Fatal(rerr)
	}
	if n := strings.Count(string(table), " false\n"); n != len(ceer.AllConfigs(4)) {
		t.Errorf("table has %d infeasible rows, want %d:\n%s", n, len(ceer.AllConfigs(4)), table)
	}
	if !strings.Contains(string(table), "no configuration satisfies the constraints") {
		t.Errorf("table lacks the no-feasible note:\n%s", table)
	}
}
