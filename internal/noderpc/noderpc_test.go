package noderpc

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"excovery/internal/core"
	"excovery/internal/desc"
	"excovery/internal/eventlog"
	"excovery/internal/failpoint"
	"excovery/internal/master"
	"excovery/internal/sched"
	"excovery/internal/sd"
	"excovery/internal/xmlrpc"
)

// TestDistributedOneShot runs the Fig. 12 deployment inside one test
// process: a node host (own real-time scheduler, emulated network, XML-RPC
// server) and a master (own real-time scheduler, event endpoint, RPC
// proxies), connected over HTTP loopback.
func TestDistributedOneShot(t *testing.T) {
	e := desc.OneShot(30)

	// --- node host side ---
	var host *Host
	x, err := core.New(e, core.Options{
		RealTime: true,
		Speed:    0.002, // 500× faster than real time
		OnEvent:  func(ev eventlog.Event) { host.ForwardEvent(ev) },
	})
	if err != nil {
		t.Fatal(err)
	}
	host = NewHost(x)
	defer host.Close()
	hostHTTP := httptest.NewServer(host.Server())
	defer hostHTTP.Close()
	x.S.SetKeepAlive(true) // serve RPC even when emulation is quiescent
	hostDone := make(chan error, 1)
	go func() { hostDone <- x.S.Run() }()
	defer x.S.Stop()

	// --- master side ---
	ms := sched.New(sched.RealTime, time.Unix(0, 0))
	ms.SetSpeed(0.002)
	bus := eventlog.NewBus(ms)
	masterHTTP := httptest.NewServer(MasterServer(ms, bus))
	defer masterHTTP.Close()

	hostClient := xmlrpc.NewClient(hostHTTP.URL)
	if _, err := hostClient.Call("host.set_master", masterHTTP.URL); err != nil {
		t.Fatal(err)
	}
	nodesV, err := hostClient.Call("host.nodes")
	if err != nil {
		t.Fatal(err)
	}
	nodeIDs := nodesV.([]any)
	if len(nodeIDs) != 2 {
		t.Fatalf("host.nodes = %v", nodeIDs)
	}

	handles := map[string]master.NodeHandle{}
	remotes := map[string]*RemoteNode{}
	for _, v := range nodeIDs {
		id := v.(string)
		rn := &RemoteNode{NodeID: id, C: xmlrpc.NewClient(hostHTTP.URL)}
		handles[id] = rn
		remotes[id] = rn
	}
	env := &RemoteEnv{C: xmlrpc.NewClient(hostHTTP.URL)}

	m, err := master.New(master.Config{
		Exp: e, S: ms, Bus: bus, Nodes: handles, Env: env,
	})
	if err != nil {
		t.Fatal(err)
	}

	var rep *master.Report
	var runErr error
	ms.Go("experimaster", func() {
		rep, runErr = m.RunAll()
	})
	if err := ms.Run(); err != nil {
		t.Fatal(err)
	}
	if runErr != nil {
		t.Fatal(runErr)
	}
	if rep.Completed != 1 {
		t.Fatalf("completed = %d; results: %+v", rep.Completed, rep.Results[0])
	}
	rr := rep.Results[0]
	if rr.Err != nil || rr.Aborted {
		t.Fatalf("run: err=%v aborted=%v", rr.Err, rr.Aborted)
	}
	if rr.Timeouts != 0 {
		t.Fatalf("timeouts = %d (discovery failed over RPC control plane)", rr.Timeouts)
	}
	// Transport must have stayed healthy.
	for id, rn := range remotes {
		if err := rn.Err(); err != nil {
			t.Fatalf("remote %s: %v", id, err)
		}
	}
	// Harvested events are authoritative: both lifecycle ends present.
	found := map[string]bool{}
	for _, ev := range remotes["A"].HarvestEvents(0) {
		found[ev.Type] = true
	}
	for _, ev := range remotes["B"].HarvestEvents(0) {
		found[ev.Type] = true
	}
	for _, typ := range []string{sd.EvStartPublish, sd.EvServiceAdd, sd.EvExitDone} {
		if !found[typ] {
			t.Errorf("missing harvested event %s", typ)
		}
	}
	// Offsets were measured over the control channel; the two processes
	// use different epochs, so the measured offset must be large and the
	// error bound finite.
	if len(rr.Offsets) == 0 {
		t.Fatal("no time sync measurements")
	}
	x.S.Stop()
	<-hostDone
}

func TestRemoteNodeErrorCollection(t *testing.T) {
	rn := &RemoteNode{NodeID: "x", C: xmlrpc.NewClient("http://127.0.0.1:1/nope")}
	rn.PrepareRun(0)
	first := rn.Err()
	if first == nil {
		t.Fatal("expected transport error")
	}
	if evs := rn.HarvestEvents(0); evs != nil {
		t.Fatal("events from dead host")
	}
	if err := rn.Execute("sd_init", nil); err == nil {
		t.Fatal("Execute against dead host succeeded")
	}
	// Err keeps the run's first failure, not the latest one.
	if err := rn.Err(); err != first {
		t.Fatalf("Err() = %v after a failed harvest, want the first error %v", err, first)
	}
	if err := rn.Health(); err == nil {
		t.Fatal("Health against dead host succeeded")
	}
	// A failed host-group call opens and fails every member's window, also
	// for a member behind a decorator that embeds its proxy.
	type decorated struct{ *RemoteNode }
	peer := &RemoteNode{NodeID: "y", C: rn.C}
	rn.GroupPrepareRun([]master.NodeHandle{rn, decorated{peer}}, 1)
	if rn.Err() == first || peer.Err() == nil {
		t.Fatalf("after a failed group prepare: Err() = %v and %v, want fresh errors in both windows", rn.Err(), peer.Err())
	}
}

func TestMasterServerRejectsBadPayload(t *testing.T) {
	s := sched.NewVirtual()
	bus := eventlog.NewBus(s)
	srv := MasterServer(s, bus)
	ts := httptest.NewServer(srv)
	defer ts.Close()
	c := xmlrpc.NewClient(ts.URL)
	if _, err := c.Call("master.events", "not json"); err == nil {
		t.Fatal("bad payload accepted")
	}
	if _, err := c.Call("master.events", 42); err == nil {
		t.Fatal("non-string accepted")
	}
}

// TestHostMethodErrors exercises the host server's argument and node
// validation without a running master.
func TestHostMethodErrors(t *testing.T) {
	c := xmlrpc.NewClient(serveHost(t).url)
	if v, err := c.Call("host.ping"); err != nil || v != "pong" {
		t.Fatalf("ping = %v, %v", v, err)
	}
	cases := []struct {
		method string
		args   []any
	}{
		{"node.ping", []any{[]any{"ghost"}}},
		{"node.ping", []any{"A"}}, // an id, not a list of ids
		{"node.ping", []any{[]any{}}},
		{"node.prepare_run", []any{[]any{"ghost"}, 0}},
		{"node.prepare_run", []any{[]any{"A"}, "not-an-int"}},
		{"node.prepare_run", []any{42, 0}},
		{"node.cleanup_run", []any{[]any{"ghost"}, 0}},
		{"node.cleanup_run", []any{[]any{"A", "A"}, 0}},
		{"node.execute", []any{"ghost", "sd_init", map[string]any{}}},
		{"node.execute", []any{"A"}}, // missing action
		{"node.emit", []any{"ghost", "x", map[string]any{}}},
		{"node.local_time", []any{[]any{"ghost"}}},
		{"node.local_time", []any{}},
		{"node.harvest_events", []any{"ghost", 0}},
		{"node.harvest_packets", []any{"ghost"}},
		{"host.set_master", []any{}},
	}
	for _, tc := range cases {
		if _, err := c.Call(tc.method, tc.args...); err == nil {
			t.Errorf("%s(%v) succeeded", tc.method, tc.args)
		}
	}
	// A failing node action surfaces as a fault with the Go error text.
	if _, err := c.Call("node.execute", "A", "sd_init", map[string]any{}); err == nil {
		t.Error("sd_init without role should fault")
	}
	// env validation propagates too.
	if _, err := c.Call("env.execute", "env_warp", map[string]any{}); err == nil {
		t.Error("unknown env action accepted")
	}
	if _, err := c.Call("env.reset"); err != nil {
		t.Errorf("env.reset: %v", err)
	}
	// Valid calls work.
	if _, err := c.Call("node.prepare_run", []string{"A"}, 0); err != nil {
		t.Errorf("prepare_run: %v", err)
	}
	v, err := c.Call("node.local_time", []string{"A"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := parseTimes(v, 1); err != nil {
		t.Fatalf("local_time reply: %v", err)
	}
}

// TestHostGroupCalls pins the list form of the broadcast methods: a list
// with an unknown or repeated id is refused, naming it, before any node is
// prepared, and node.local_time answers in request order.
func TestHostGroupCalls(t *testing.T) {
	var opts core.Options
	opts.ClockSkew.MaxOffset = time.Second
	host := serveHostOpts(t, opts)
	c := xmlrpc.NewClient(host.url)
	runOf := func(id string) int { return host.x.Managers[id].Recorder().Run() }
	a0, b0 := runOf("A"), runOf("B")
	for _, tc := range []struct {
		ids  []string
		want string
	}{
		{[]string{"A", "ghost"}, `no node "ghost"`},
		{[]string{"A", "B", "A"}, `node "A" listed twice`},
	} {
		if _, err := c.Call("node.prepare_run", tc.ids, 7); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("prepare_run%v = %v, want refusal %q", tc.ids, err, tc.want)
		}
	}
	if a, b := runOf("A"), runOf("B"); a != a0 || b != b0 {
		t.Fatalf("refused calls prepared nodes: runs A %d→%d, B %d→%d", a0, a, b0, b)
	}
	if _, err := c.Call("node.prepare_run", []string{"A", "B"}, 7); err != nil {
		t.Fatal(err)
	}
	if a, b := runOf("A"), runOf("B"); a != 7 || b != 7 {
		t.Fatalf("runs after prepare_run[A B] 7 = %d, %d", a, b)
	}

	// Both clocks are read at one instant of the host, so the difference
	// between them is exact and flips sign with the request order.
	diff := func(ids ...string) time.Duration {
		v, err := c.Call("node.local_time", ids)
		if err != nil {
			t.Fatal(err)
		}
		times, err := parseTimes(v, len(ids))
		if err != nil {
			t.Fatal(err)
		}
		return times[1].Sub(times[0])
	}
	ab, ba := diff("A", "B"), diff("B", "A")
	if ab == 0 {
		t.Fatal("skewed clocks of A and B read equal; the order check needs them apart")
	}
	if ba != -ab {
		t.Errorf("local_time[B A] differs by %v, local_time[A B] by %v: reply not in request order", ba, ab)
	}
}

// servedHost is a one-shot platform's node host on loopback with its
// scheduler running; it keeps every request body it received.
type servedHost struct {
	*Host
	srv *xmlrpc.Server
	url string

	mu     sync.Mutex
	bodies [][]byte
}

func serveHost(t *testing.T) *servedHost {
	t.Helper()
	return serveHostOpts(t, core.Options{})
}

// serveHostOpts is serveHost with platform options (always real time).
func serveHostOpts(t *testing.T, opts core.Options) *servedHost {
	t.Helper()
	opts.RealTime = true
	x, err := core.New(desc.OneShot(30), opts)
	if err != nil {
		t.Fatal(err)
	}
	sh := &servedHost{Host: NewHost(x)}
	t.Cleanup(sh.Close)
	x.S.SetKeepAlive(true)
	sh.srv = sh.Server()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		body, _ := io.ReadAll(req.Body)
		sh.mu.Lock()
		sh.bodies = append(sh.bodies, body)
		sh.mu.Unlock()
		req.Body = io.NopCloser(bytes.NewReader(body))
		sh.srv.ServeHTTP(w, req)
	}))
	t.Cleanup(ts.Close)
	sh.url = ts.URL
	done := make(chan error, 1)
	go func() { done <- x.S.Run() }()
	t.Cleanup(func() { x.S.Stop(); <-done })
	return sh
}

// TestActionParamsNamedLikeCallMetadata pins that call metadata and action
// parameters cannot be mistaken for each other: action parameters come
// from the description document, and one whose only parameter is called
// trace_parent or fence_epoch used to be read as a trailing marker — the
// plugin lost its parameter, and a fence_epoch below the host's claim
// epoch was refused as a stale master. The master here is wired statically
// (no epoch, no tracer); the host was claimed at epoch 5 before.
func TestActionParamsNamedLikeCallMetadata(t *testing.T) {
	host := serveHost(t)
	var got map[string]string
	host.x.Managers["A"].RegisterPlugin("plugin_x", func(p map[string]string) error {
		got = p
		return nil
	})

	c := xmlrpc.NewClient(host.url)
	if _, err := c.CallMeta("host.set_master", xmlrpc.Meta{FenceEpoch: 5}, host.url); err != nil {
		t.Fatal(err)
	}
	rn := &RemoteNode{NodeID: "A", C: c}
	for _, name := range []string{"trace_parent", "fence_epoch"} {
		for _, value := range []string{"1", "7"} {
			got = nil
			if err := rn.Execute("plugin_x", map[string]string{name: value}); err != nil {
				t.Errorf("node action with sole param %s=%s: %v", name, value, err)
			}
			if len(got) != 1 || got[name] != value {
				t.Errorf("plugin saw %v, want {%s: %s}", got, name, value)
			}
		}
	}
	// The environment executor ignores parameters it does not know, so all
	// a mistaken marker could do there is get the call refused.
	env := &RemoteEnv{C: c}
	for _, value := range []string{"1", "7"} {
		if err := env.Execute(eventlog.EvEnvDropAllStart, map[string]string{"fence_epoch": value}); err != nil {
			t.Errorf("env action with sole param fence_epoch=%s: %v", value, err)
		}
	}
	if st := host.Status(); st.FenceEpoch != 5 || st.FencedRejections != 0 {
		t.Errorf("host status = %+v, want epoch 5 and no fenced rejections", st)
	}
}

// TestCallMetadataOnTheWire pins the one carrier: a traced, fenced call's
// body holds its positional parameters and nothing else, the host parents
// its span under the header's trace parent, and a retry whose first
// response was lost is answered from the idempotency cache — no second
// span, no second fencing decision.
func TestCallMetadataOnTheWire(t *testing.T) {
	host := serveHost(t)
	url := host.url
	fp := failpoint.New(1)
	host.srv.FP = fp
	policy := xmlrpc.RetryPolicy{MaxAttempts: 3, BaseBackoff: time.Millisecond, MaxBackoff: time.Millisecond}
	if _, err := xmlrpc.NewClient(url).CallMeta("host.set_master", xmlrpc.Meta{FenceEpoch: 5}, url); err != nil {
		t.Fatal(err)
	}

	rn := &RemoteNode{NodeID: "A", C: xmlrpc.NewRetryingClient(url, policy)}
	rn.SetTraceParent(9)
	rn.SetFenceEpoch(5)
	sent := len(host.bodies)
	fp.Enable(failpoint.SiteServerSend, failpoint.Rule{Prob: 1, Act: failpoint.Drop, Count: 1})
	rn.PrepareRun(3)
	if err := rn.Err(); err != nil {
		t.Fatal(err)
	}
	bodies := host.bodies[sent:]
	if len(bodies) != 2 || !bytes.Equal(bodies[0], bodies[1]) {
		t.Fatalf("%d request bodies, want the call and its identical retry", len(bodies))
	}
	method, params, err := xmlrpc.DecodeCall(bodies[0])
	if err != nil || method != "node.prepare_run" || !reflect.DeepEqual(params, []any{[]any{"A"}, 3}) {
		t.Errorf("wire call = %s%v, %v; want node.prepare_run[[A] 3]", method, params, err)
	}
	spans := host.Tracer().RunSpans(3)
	if len(spans) != 1 || spans[0].Parent != 9 || spans[0].Name != "node.prepare_run" {
		t.Errorf("host spans of run 3 = %+v, want one node.prepare_run under parent 9", spans)
	}

	// A master whose claim was superseded: refused once, however often the
	// refusal has to be re-sent.
	stale := &RemoteNode{NodeID: "A", C: xmlrpc.NewRetryingClient(url, policy)}
	stale.SetFenceEpoch(4)
	fp.Enable(failpoint.SiteServerSend, failpoint.Rule{Prob: 1, Act: failpoint.Drop, Count: 1})
	stale.PrepareRun(4)
	if err := stale.Err(); err == nil || !strings.Contains(err.Error(), "fenced: stale epoch 4 (host claimed at epoch 5)") {
		t.Errorf("stale master's call = %v, want fenced refusal", err)
	}
	if st := host.Status(); st.FencedRejections != 1 {
		t.Errorf("fenced rejections = %d, want 1", st.FencedRejections)
	}
	if st := host.srv.Stats(); st.DedupReplays != 2 {
		t.Errorf("server stats = %+v, want 2 replays", st)
	}
}
