// In-process fabric harness: one coordinator and N workers over httptest
// transports, pinning the subsystem's contract — merged results are
// byte-identical to local single-process runs for any worker count, chunk
// size, failure history, or incumbent-exchange setting.
package fabric

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"microfab/internal/app"
	"microfab/internal/core"
	"microfab/internal/exact"
	"microfab/internal/experiments"
	"microfab/internal/gen"
	"microfab/internal/instance"
	"microfab/internal/platform"
)

// testCoord spins a coordinator behind an httptest server.
func testCoord(t *testing.T, cfg CoordConfig) (*Coordinator, *httptest.Server) {
	t.Helper()
	c := NewCoordinator(cfg)
	srv := httptest.NewServer(c.Handler())
	t.Cleanup(srv.Close)
	return c, srv
}

// testWorker builds a worker with harness-speed knobs.
func testWorker(base, name string) *Worker {
	return &Worker{
		Base:           base,
		Name:           name,
		Poll:           5 * time.Millisecond,
		HeartbeatEvery: 20 * time.Millisecond,
		Backoff:        10 * time.Millisecond,
	}
}

// startWorkers runs n workers until the returned stop func is called.
func startWorkers(t *testing.T, base string, n int) (stop func()) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		w := testWorker(base, fmt.Sprintf("w%d", i))
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = w.Run(ctx)
		}()
	}
	return func() {
		cancel()
		wg.Wait()
	}
}

var campaignCfg = experiments.Config{Draws: 4, Thin: 3, Seed: 17, Workers: 1}

var campaignSpec = CampaignSpec{Figure: 5, Draws: 4, Seed: 17, Thin: 3}

// TestCampaignMergeDeterminism: the merged figure from 1, 2 and 4 workers
// over uneven chunks is deep-equal AND byte-identical (JSON) to a local
// single-process run.
func TestCampaignMergeDeterminism(t *testing.T) {
	local, err := experiments.Figure(campaignSpec.Figure, campaignCfg)
	if err != nil {
		t.Fatal(err)
	}
	localJSON, err := json.Marshal(local)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4} {
		_, srv := testCoord(t, CoordConfig{ChunkDraws: 3}) // 4 draws -> uneven [0,3)+[3,4)
		stop := startWorkers(t, srv.URL, workers)
		res, err := SubmitCampaign(context.Background(), srv.Client(), srv.URL, campaignSpec)
		stop()
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(res, local) {
			t.Fatalf("workers=%d: merged result differs from local run", workers)
		}
		remoteJSON, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(remoteJSON, localJSON) {
			t.Fatalf("workers=%d: merged JSON is not byte-identical to local", workers)
		}
		if experiments.Render(res) != experiments.Render(local) {
			t.Fatalf("workers=%d: rendered figure differs", workers)
		}
	}
}

// TestCampaignWorkerKilled: a worker dies mid-chunk (hard kill, no
// completion, no drain); its lease expires, the chunk is reassigned, and
// the merged figure is still byte-identical to the local run.
func TestCampaignWorkerKilled(t *testing.T) {
	local, err := experiments.Figure(campaignSpec.Figure, campaignCfg)
	if err != nil {
		t.Fatal(err)
	}
	coord, srv := testCoord(t, CoordConfig{ChunkDraws: 1, LeaseTTL: 150 * time.Millisecond})

	// Victim worker: killed on its first lease, before reporting anything.
	vctx, vcancel := context.WithCancel(context.Background())
	defer vcancel()
	killed := make(chan struct{})
	var once sync.Once
	victim := testWorker(srv.URL, "victim")
	victim.OnLease = func(*Chunk) {
		once.Do(func() {
			vcancel()
			close(killed)
		})
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_ = victim.Run(vctx)
	}()

	// Submit, then bring up the survivor only after the victim holds (and
	// abandons) a lease, so the reassignment path provably runs.
	type outcome struct {
		res *experiments.Result
		err error
	}
	resCh := make(chan outcome, 1)
	go func() {
		res, err := SubmitCampaign(context.Background(), srv.Client(), srv.URL, campaignSpec)
		resCh <- outcome{res, err}
	}()
	select {
	case <-killed:
	case <-time.After(10 * time.Second):
		t.Fatal("victim never leased a chunk")
	}
	wg.Wait()
	stop := startWorkers(t, srv.URL, 1)
	defer stop()

	out := <-resCh
	if out.err != nil {
		t.Fatal(out.err)
	}
	if !reflect.DeepEqual(out.res, local) {
		t.Fatal("merged result differs from local run after worker death")
	}
	a, _ := json.Marshal(out.res)
	b, _ := json.Marshal(local)
	if !bytes.Equal(a, b) {
		t.Fatal("merged JSON not byte-identical after worker death")
	}

	st := coord.status()
	if len(st.Jobs) != 1 {
		t.Fatalf("status: %d jobs, want 1", len(st.Jobs))
	}
	js := st.Jobs[0]
	if !js.Finished || js.Done != js.Chunks || js.Pending != 0 || js.Inflight != 0 {
		t.Fatalf("status: job not cleanly finished: %+v", js)
	}
	if js.Reassigned < 1 {
		t.Fatalf("status: no reassignment recorded after a worker death: %+v", js)
	}
}

// TestExactDistributedMatchesLocal: the distributed proof equals local
// exact.Solve — same period, mapping and proven flag — for 1, 2 and 4
// workers, incumbent exchange on and off.
func TestExactDistributedMatchesLocal(t *testing.T) {
	in, err := gen.Chain(gen.Default(12, 3, 5), gen.RNG(29))
	if err != nil {
		t.Fatal(err)
	}
	ref, err := exact.Solve(in, exact.Options{Rule: core.Specialized, WarmStart: true})
	if err != nil {
		t.Fatal(err)
	}
	if !ref.Proven {
		t.Fatal("reference not proven")
	}
	file := instance.FromInstance(in, "fabric harness")

	for _, exchange := range []bool{true, false} {
		for _, workers := range []int{1, 2, 4} {
			_, srv := testCoord(t, CoordConfig{})
			stop := startWorkers(t, srv.URL, workers)
			res, err := SubmitExact(context.Background(), srv.Client(), srv.URL, ExactSpec{
				Instance:        *file,
				WarmStart:       true,
				Subtrees:        16,
				DisableExchange: !exchange,
			})
			stop()
			if err != nil {
				t.Fatalf("workers=%d exchange=%v: %v", workers, exchange, err)
			}
			if !res.Proven {
				t.Fatalf("workers=%d exchange=%v: not proven", workers, exchange)
			}
			if res.Period != ref.Period {
				t.Fatalf("workers=%d exchange=%v: period %v != %v", workers, exchange, res.Period, ref.Period)
			}
			if len(res.Assign) != in.N() {
				t.Fatalf("workers=%d exchange=%v: assign has %d tasks, want %d", workers, exchange, len(res.Assign), in.N())
			}
			for i, u := range res.Assign {
				if platform.MachineID(u) != ref.Mapping.Machine(app.TaskID(i)) {
					t.Fatalf("workers=%d exchange=%v: mapping diverges at task %d", workers, exchange, i)
				}
			}
			if res.Subtrees < 1 {
				t.Fatalf("workers=%d exchange=%v: no subtrees recorded", workers, exchange)
			}
		}
	}

}

// TestExactInfeasibleTyped: an instance with no feasible mapping (three
// task types, two machines, Specialized rule) fails the distributed solve
// with exact.Merge's typed error, the same error a local exact.Solve
// returns.
func TestExactInfeasibleTyped(t *testing.T) {
	in, err := gen.Chain(gen.Default(6, 3, 3), gen.RNG(5))
	if err != nil {
		t.Fatal(err)
	}
	file := instance.FromInstance(in, "three types, two machines")
	for i := range file.Times {
		file.Times[i], file.Failures[i] = file.Times[i][:2], file.Failures[i][:2]
	}
	narrow, err := file.ToInstance()
	if err != nil {
		t.Fatal(err)
	}
	_, local := exact.Solve(narrow, exact.Options{Rule: core.Specialized, WarmStart: true})
	if !errors.Is(local, exact.ErrInfeasible) {
		t.Fatalf("local solve: got %v, want ErrInfeasible", local)
	}

	c, srv := testCoord(t, CoordConfig{})
	stop := startWorkers(t, srv.URL, 2)
	defer stop()
	_, err = c.SubmitExactJob(context.Background(), ExactSpec{Instance: *file, WarmStart: true, Subtrees: 8})
	if !errors.Is(err, exact.ErrInfeasible) {
		t.Fatalf("distributed solve: got %v, want ErrInfeasible", err)
	}
	if err.Error() != local.Error() {
		t.Fatalf("distributed error %q, local %q", err, local)
	}
}

// TestWorkerDrain: a drained worker finishes and reports its current
// chunk, then Run returns nil without taking more work.
func TestWorkerDrain(t *testing.T) {
	_, srv := testCoord(t, CoordConfig{ChunkDraws: 1})
	w := testWorker(srv.URL, "drainer")
	w.OnLease = func(*Chunk) { w.Drain() } // drain the moment work arrives
	done := make(chan error, 1)

	resCh := make(chan error, 1)
	go func() {
		_, err := SubmitCampaign(context.Background(), srv.Client(), srv.URL, campaignSpec)
		resCh <- err
	}()
	go func() { done <- w.Run(context.Background()) }()
	if err := <-done; err != nil {
		t.Fatalf("drained Run returned %v, want nil", err)
	}
	// The drained worker completed exactly one chunk; a fresh fleet
	// finishes the job.
	stop := startWorkers(t, srv.URL, 2)
	defer stop()
	if err := <-resCh; err != nil {
		t.Fatal(err)
	}
}

// TestStatusAndErrors: /status reflects finished jobs and workers;
// /healthz answers; bad submissions come back as typed errors.
func TestStatusAndErrors(t *testing.T) {
	_, srv := testCoord(t, CoordConfig{})
	stop := startWorkers(t, srv.URL, 2)
	defer stop()
	if _, err := SubmitCampaign(context.Background(), srv.Client(), srv.URL, campaignSpec); err != nil {
		t.Fatal(err)
	}

	resp, err := srv.Client().Get(srv.URL + "/status")
	if err != nil {
		t.Fatal(err)
	}
	var st StatusResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(st.Jobs) != 1 || !st.Jobs[0].Finished || st.Jobs[0].Kind != KindCampaign {
		t.Fatalf("status: %+v", st.Jobs)
	}
	if len(st.Workers) == 0 {
		t.Fatal("status lists no workers")
	}

	hz, err := srv.Client().Get(srv.URL + "/healthz")
	if err != nil || hz.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %v %v", hz.StatusCode, err)
	}
	hz.Body.Close()

	// Unknown figure: typed campaign-failed error, no hang.
	_, err = SubmitCampaign(context.Background(), srv.Client(), srv.URL, CampaignSpec{Figure: 999})
	if ae, ok := err.(*apiError); !ok || ae.Code != "campaign-failed" {
		t.Fatalf("bad figure: got %v, want campaign-failed", err)
	}
	// Unknown rule: typed exact-failed error.
	in, err2 := gen.Chain(gen.Default(4, 2, 2), gen.RNG(1))
	if err2 != nil {
		t.Fatal(err2)
	}
	_, err = SubmitExact(context.Background(), srv.Client(), srv.URL, ExactSpec{
		Instance: *instance.FromInstance(in, ""),
		Rule:     "nonsense",
	})
	if ae, ok := err.(*apiError); !ok || ae.Code != "exact-failed" {
		t.Fatalf("bad rule: got %v, want exact-failed", err)
	}
	// Unknown job id: typed 404.
	jr, err := srv.Client().Get(srv.URL + "/job/12345")
	if err != nil {
		t.Fatal(err)
	}
	jr.Body.Close()
	if jr.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job: HTTP %d, want 404", jr.StatusCode)
	}
}

// TestSubmitterHangupCancelsJob: a submitter that abandons its blocking
// call cancels the job — pending chunks drop and heartbeats tell workers
// to stop, so the fabric does not burn cycles for a dead client.
func TestSubmitterHangupCancelsJob(t *testing.T) {
	coord, srv := testCoord(t, CoordConfig{ChunkDraws: 1})
	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	go func() {
		_, err := SubmitCampaign(ctx, srv.Client(), srv.URL, campaignSpec)
		errCh <- err
	}()
	// Hang up before any worker exists.
	time.Sleep(20 * time.Millisecond)
	cancel()
	if err := <-errCh; err == nil {
		t.Fatal("abandoned submit returned no error")
	}
	// A worker arriving later must find nothing to lease.
	stop := startWorkers(t, srv.URL, 1)
	defer stop()
	time.Sleep(50 * time.Millisecond)
	st := coord.status()
	if len(st.Jobs) != 1 || !st.Jobs[0].Finished || st.Jobs[0].Pending != 0 {
		t.Fatalf("cancelled job not drained: %+v", st.Jobs)
	}
}

// postRaw posts a literal JSON body and returns the raw response body,
// failing on any non-200 status.
func postRaw(t *testing.T, srv *httptest.Server, path, body string) []byte {
	t.Helper()
	resp, err := srv.Client().Post(srv.URL+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST %s: HTTP %d: %s", path, resp.StatusCode, out)
	}
	return out
}

// TestRemovedAblationFieldsIgnored: specs written for older releases may
// still carry the removed incremental-bound and relaxation-tier ablation
// switches (testdata/removed_fields.json). The coordinator ignores unknown
// fields, so such a spec runs and its response is byte-identical to the
// same spec without them.
func TestRemovedAblationFieldsIgnored(t *testing.T) {
	raw, err := os.ReadFile("testdata/removed_fields.json")
	if err != nil {
		t.Fatal(err)
	}
	var removed map[string]json.RawMessage
	if err := json.Unmarshal(raw, &removed); err != nil {
		t.Fatal(err)
	}
	in, err := gen.Chain(gen.Default(10, 3, 5), gen.RNG(29))
	if err != nil {
		t.Fatal(err)
	}
	_, srv := testCoord(t, CoordConfig{ChunkDraws: 1})
	stop := startWorkers(t, srv.URL, 2)
	defer stop()

	for _, c := range []struct {
		path string
		spec any
	}{
		// A MIP figure, so the exact burst the old campaign switch steered
		// runs; the node budget binds long before the wall clock.
		{"/campaign", CampaignSpec{Figure: 10, Draws: 1, Thin: 7, Seed: 3, MIPMaxNodes: 100, MIPTimeLimitMs: 600000}},
		// Exchange off keeps the merged node count independent of timing.
		{"/exact", ExactSpec{Instance: *instance.FromInstance(in, "legacy spec"), WarmStart: true, Subtrees: 8, DisableExchange: true}},
	} {
		plain, err := json.Marshal(c.spec)
		if err != nil {
			t.Fatal(err)
		}
		var fields map[string]json.RawMessage
		if err := json.Unmarshal(plain, &fields); err != nil {
			t.Fatal(err)
		}
		for k, v := range removed {
			fields[k] = v
		}
		legacy, err := json.Marshal(fields)
		if err != nil {
			t.Fatal(err)
		}
		want := postRaw(t, srv, c.path, string(plain))
		got := postRaw(t, srv, c.path, string(legacy))
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: response with removed fields differs:\n got  %s\n want %s", c.path, got, want)
		}
	}
}

// TestInvalidSubtreeReportFailsJob: the coordinator checks every found
// subtree report against its own instance before merging it. A fake
// worker reports an assignment with one task too many, one with a machine
// outside the platform, one that breaks the Specialized rule at a claimed
// period of 1, and a rule-respecting one at half its real period. Each
// fails the job with a typed error naming the chunk: no handler panics
// and no forged report comes back as a proof.
func TestInvalidSubtreeReportFailsJob(t *testing.T) {
	in, err := gen.Chain(gen.Default(12, 3, 5), gen.RNG(29))
	if err != nil {
		t.Fatal(err)
	}
	n := in.N()
	valid, err := exact.Solve(in, exact.Options{Rule: core.Specialized, WarmStart: true, MaxNodes: 1})
	if err != nil {
		t.Fatal(err)
	}
	validAssign := make([]int, n)
	for i := range validAssign {
		validAssign[i] = int(valid.Mapping.Machine(app.TaskID(i)))
	}
	badMachine := make([]int, n)
	badMachine[0] = 99
	file := instance.FromInstance(in, "forged reports")

	for _, c := range []struct {
		name   string
		assign []int
		period float64
	}{
		{"too many tasks", make([]int, n+1), 1},
		{"machine out of range", badMachine, 1},
		{"rule broken", make([]int, n), 1},
		{"period forged", validAssign, valid.Period / 2},
	} {
		_, srv := testCoord(t, CoordConfig{})
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		errCh := make(chan error, 1)
		go func() {
			_, err := SubmitExact(ctx, srv.Client(), srv.URL, ExactSpec{Instance: *file, WarmStart: true, Subtrees: 16})
			errCh <- err
		}()
		fake := testWorker(srv.URL, "forger")
		var ck *Chunk
		for ck == nil {
			if ck, err = fake.lease(ctx); err != nil {
				t.Fatalf("%s: lease: %v", c.name, err)
			}
			time.Sleep(time.Millisecond)
		}
		var resp CompleteResponse
		if err := fake.postJSON(ctx, "/complete", CompleteRequest{
			Worker: "forger", Job: ck.Job, Chunk: ck.ID,
			Subtree: &exact.SubtreeOutcome{Found: true, Period: c.period, Assign: c.assign, WarmPeriod: ck.WarmPeriod},
		}, &resp); err != nil {
			t.Fatalf("%s: complete: %v", c.name, err)
		}
		// Honest workers finish whatever chunks are left.
		stop := startWorkers(t, srv.URL, 2)
		err := <-errCh
		stop()
		cancel()
		ae, ok := err.(*apiError)
		if !ok || ae.Code != "exact-failed" {
			t.Fatalf("%s: got %v, want an exact-failed error", c.name, err)
		}
		if want := fmt.Sprintf("chunk %d: invalid subtree report: ", ck.ID); !strings.Contains(ae.Detail, want) {
			t.Fatalf("%s: error %q does not contain %q", c.name, ae.Detail, want)
		}
	}
}
