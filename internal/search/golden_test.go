package search

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"microfab/internal/gen"
)

var updateProbes = flag.Bool("update-probes", false, "rewrite testdata/probe_golden.json from the current search")

const probesFile = "testdata/probe_golden.json"

// probeRecord is the fingerprint of one search run: a changed accept
// decision shows up in the mapping, the probe count or the accepted count.
type probeRecord struct {
	Name     string  `json:"name"`
	Mapping  string  `json:"mapping"`
	Probes   int     `json:"probes"`
	Accepted int     `json:"accepted"`
	Period   float64 `json:"period"`
}

// recordProbes runs every trial-corpus case through the descents and the
// annealer as production runs them: first-improvement polish under the
// campaigns' binding 2000-probe budget, steepest descent with the facade's
// four restarts, a plain steepest descent, Anneal on five RNG streams at
// 3000 proposals, and the campaigns' anneal polish.
func recordProbes(t *testing.T) []probeRecord {
	t.Helper()
	var recs []probeRecord
	add := func(label string, res *Result, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		recs = append(recs, probeRecord{label, res.Mapping.String(), res.Probes, res.Accepted, res.Period})
	}
	for k, c := range trialCorpus(t) {
		for _, run := range []struct {
			name string
			opt  Options
		}{
			{"polish", Options{Rule: c.rule, FirstImprovement: true, MaxProbes: 2000}},
			{"ls", Options{Rule: c.rule, Restarts: 4, RestartSeed: gen.StringSeed("microfab/ls-restarts")}},
			{"steepest", Options{Rule: c.rule}},
		} {
			res, err := HillClimb(c.in, c.seed, run.opt)
			add(c.name+"/"+run.name, res, err)
		}
		for s := int64(0); s < 5; s++ {
			res, err := Anneal(c.in, c.seed, gen.RNG(s), Options{Rule: c.rule, Iters: 3000})
			add(fmt.Sprintf("%s/anneal-rng%d", c.name, s), res, err)
		}
		res, err := Polish(c.in, c.seed, "anneal", c.rule, gen.RNG(int64(k)), 0)
		add(c.name+"/polish-anneal", res, err)
	}
	return recs
}

// TestTrialIdenticalToLedgerProbes pins every probe decision to the
// recorded results of the apply/read/revert search (each probe applied,
// its period read off the compensated ledger, rejected probes reverted),
// which testdata/probe_golden.json was generated from. Deciding probes on
// their read-only trial price may change nothing but speed: each run must
// reproduce its mapping, Probes and Accepted exactly, and its period
// within 1e-12 relative (the trial and the ledger differ by rounding
// only). Regenerate with `go test ./internal/search -run
// TestTrialIdenticalToLedgerProbes -update-probes` only for a deliberate
// change of the search.
func TestTrialIdenticalToLedgerProbes(t *testing.T) {
	got := recordProbes(t)
	if *updateProbes {
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		enc.SetEscapeHTML(false) // keep the mappings' "T1->M3" readable
		enc.SetIndent("", "  ")
		if err := enc.Encode(got); err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(probesFile), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(probesFile, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	buf, err := os.ReadFile(probesFile)
	if err != nil {
		t.Fatal(err)
	}
	var want []probeRecord
	if err := json.Unmarshal(buf, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("%d recorded runs, %d run", len(want), len(got))
	}
	for k, w := range want {
		g := got[k]
		if g.Name != w.Name || g.Mapping != w.Mapping || g.Probes != w.Probes || g.Accepted != w.Accepted {
			t.Errorf("%s: diverged from the recorded run:\n  got  %v probes %d accepted %d (%v)\n  want %v probes %d accepted %d (%v)",
				w.Name, g.Period, g.Probes, g.Accepted, g.Mapping, w.Period, w.Probes, w.Accepted, w.Mapping)
			continue
		}
		if math.Abs(g.Period-w.Period) > 1e-12*math.Max(g.Period, w.Period) {
			t.Errorf("%s: period %v, recorded %v", w.Name, g.Period, w.Period)
		}
	}
}
