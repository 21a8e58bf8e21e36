package main

// Isolated drivers: each feeds one layer through its public functions with
// a fixed input, so a layer's unit cost can be read apart from the
// campaign. They run after the traced campaign, in the same process.

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"excovery/internal/core"
	"excovery/internal/eventlog"
	"excovery/internal/metrics"
	"excovery/internal/netem"
	"excovery/internal/sched"
	"excovery/internal/store"
	"excovery/internal/store/reldb"
	"excovery/internal/xmlrpc"
)

// effort scales the isolated drivers' iteration counts: 1 at the
// benchmark's run length, less when --seconds asks for a quick look (the
// smoke test).
type effort float64

func (e effort) n(full int) int {
	if n := int(float64(full) * float64(e)); n > 8 {
		return n
	}
	return 8
}

// schedTimerNS is the cost of one fired event on a bare virtual scheduler.
// 64 chains re-arm themselves, so the timer heap stays as shallow as it is
// inside a run.
func (e effort) schedTimerNS() (float64, error) {
	const chains = 64
	n := e.n(1_000_000) + chains
	s := sched.NewVirtual()
	fired := 0
	var fn func(time.Time, any)
	fn = func(_ time.Time, arg any) {
		fired++
		if fired <= n-chains {
			s.ScheduleEvent(arg.(time.Duration), fn, arg)
		}
	}
	for i := 0; i < chains; i++ {
		d := time.Duration(i+1) * time.Microsecond
		s.ScheduleEvent(d, fn, d)
	}
	t0 := wallNow()
	if err := s.Run(); err != nil {
		return 0, err
	}
	el := wallNow().Sub(t0)
	if fired != n {
		return 0, fmt.Errorf("sched timer driver: %d of %d events fired", fired, n)
	}
	return float64(el.Nanoseconds()) / float64(n), nil
}

// schedSwitchNS is the cost of one task switch: two tasks hand the
// processor back and forth through Sleep.
func (e effort) schedSwitchNS() (float64, error) {
	n := e.n(50_000)
	s := sched.NewVirtual()
	for t := 0; t < 2; t++ {
		s.Go(fmt.Sprintf("pingpong %d", t), func() {
			for i := 0; i < n; i++ {
				s.Sleep(time.Millisecond)
			}
		})
	}
	t0 := wallNow()
	if err := s.Run(); err != nil {
		return 0, err
	}
	el := wallNow().Sub(t0)
	return float64(el.Nanoseconds()) / float64(s.Switches()), nil
}

// netemUnicastNS is the steady-state cost of one unicast delivery on a
// 6-node full mesh (the case study's platform size): every delivery sends
// the next packet, no tasks involved.
func (e effort) netemUnicastNS() (float64, error) {
	n := e.n(300_000)
	s := sched.NewVirtual()
	nw := netem.New(s, 7)
	ids := netem.BuildFull(nw, "n", 6, netem.NodeParams{},
		netem.LinkParams{Delay: 500 * time.Microsecond, Jitter: 100 * time.Microsecond})
	payload := make([]byte, 120)
	remaining := 0
	for i, id := range ids {
		nd, next := nw.Node(id), ids[(i+1)%len(ids)]
		nd.SetHandler(func(*netem.Packet) {
			if remaining > 0 {
				remaining--
				nd.Send(netem.Unicast(next), "traffic", payload)
			}
		})
	}
	round := func(k int) error {
		remaining = k
		s.Go("kick", func() { nw.Node(ids[0]).Send(netem.Unicast(ids[1]), "traffic", payload) })
		return s.Run()
	}
	if err := round(2048); err != nil { // fill the packet and timer pools
		return 0, err
	}
	d0 := nw.Stats().Delivered
	t0 := wallNow()
	if err := round(n); err != nil {
		return 0, err
	}
	el := wallNow().Sub(t0)
	return ratio(float64(el.Nanoseconds()), float64(nw.Stats().Delivered-d0)), nil
}

// netemFloodNSPerTx is the cost of one per-hop transmission when a
// multicast floods the mesh-flood platform: the 20 × 10 grid with burst-loss
// links, every node a group member and relay.
func (e effort) netemFloodNSPerTx() (float64, error) {
	floods := e.n(300)
	s := sched.NewVirtual()
	nw := netem.New(s, 7)
	ids := netem.BuildGrid(nw, "n", meshWidth, meshNodes/meshWidth, netem.NodeParams{}, meshLink())
	for _, id := range ids {
		nw.Join("sd", id)
		nw.Node(id).SetHandler(func(*netem.Packet) {})
	}
	payload := make([]byte, 120)
	flood := func(k int) error {
		s.Go("source", func() {
			for i := 0; i < k; i++ {
				nw.Node(ids[i%len(ids)]).Send(netem.Multicast("sd"), "sd", payload)
				s.Sleep(50 * time.Millisecond)
				// A flood is one run's worth of duplicate suppression.
				for _, id := range ids {
					nw.Node(id).ResetRunState()
				}
			}
		})
		return s.Run()
	}
	if err := flood(20); err != nil {
		return 0, err
	}
	tx0 := nw.Stats().Transmissions
	t0 := wallNow()
	if err := flood(floods); err != nil {
		return 0, err
	}
	el := wallNow().Sub(t0)
	return ratio(float64(el.Nanoseconds()), float64(nw.Stats().Transmissions-tx0)), nil
}

// faultTrafficNSPerPkt is the cost of one background packet of the Fig. 7
// traffic process on a bare 6-node network: 5 pairs at 100 kbit/s for 20
// virtual seconds.
func (e effort) faultTrafficNSPerPkt() (float64, error) {
	s := sched.NewVirtual()
	nw := netem.New(s, 7)
	ids := netem.BuildFull(nw, "e", 6, radio, netem.DefaultLink())
	names := make([]string, len(ids))
	for i, id := range ids {
		names[i] = string(id)
		nw.Node(id).SetHandler(func(*netem.Packet) {})
	}
	env := core.NewEnvExec(s, nw, nil, names, nil)
	var sent uint64
	var execErr error
	s.Go("traffic", func() {
		execErr = env.Execute(eventlog.EvEnvTrafficStart, map[string]string{
			"bw": "100", "random_pairs": "5", "random_seed": "7"})
		if execErr != nil {
			return
		}
		s.Sleep(time.Duration(e.n(20_000)) * time.Millisecond)
		sent = env.Traffic().Sent()
		execErr = env.Execute(eventlog.EvEnvTrafficStop, nil)
	})
	t0 := wallNow()
	if err := s.RunFor(5 * time.Minute); err != nil {
		return 0, err
	}
	el := wallNow().Sub(t0)
	if execErr != nil {
		return 0, execErr
	}
	return ratio(float64(el.Nanoseconds()), float64(sent)), nil
}

// harvest is one run's level-2 content as the master hands it to the store.
type harvest struct {
	nodes   []string
	events  map[string][]eventlog.Event
	packets map[string][]store.PacketRecord
	info    store.RunInfo
}

// readHarvest captures one committed run back from a level-2 store.
func readHarvest(rs *store.RunStore, run int) (*harvest, error) {
	nodes, err := rs.RunNodes(run)
	if err != nil {
		return nil, err
	}
	h := &harvest{nodes: nodes, events: map[string][]eventlog.Event{},
		packets: map[string][]store.PacketRecord{}}
	for _, n := range nodes {
		if h.events[n], err = rs.ReadEvents(run, n); err != nil {
			return nil, err
		}
		if h.packets[n], err = rs.ReadPackets(run, n); err != nil {
			return nil, err
		}
	}
	if h.info, err = rs.ReadRunInfo(run); err != nil {
		return nil, err
	}
	return h, nil
}

// storeWriteRunUS replays the committer's durable tail for one captured
// harvest — stage, write, commit, done marker — into a fresh store under
// dir, and returns the median time of one run.
func storeWriteRunUS(dir string, h *harvest, n int) (float64, error) {
	rs, err := store.NewRunStore(dir)
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	samples := make([]float64, 0, n)
	for run := 0; run < n; run++ {
		t0 := wallNow()
		sr, err := rs.StageRun(run)
		if err != nil {
			return 0, err
		}
		st := sr.Store()
		for _, node := range h.nodes {
			if err := st.WriteEvents(run, node, h.events[node]); err != nil {
				return 0, err
			}
			if err := st.WritePackets(run, node, h.packets[node]); err != nil {
				return 0, err
			}
		}
		info := h.info
		info.Run = run
		if err := st.WriteRunInfo(info); err != nil {
			return 0, err
		}
		if err := sr.Commit(); err != nil {
			return 0, err
		}
		if err := rs.MarkRunDone(run); err != nil {
			return 0, err
		}
		samples = append(samples, us(wallNow().Sub(t0)))
	}
	return median(samples), nil
}

// journalAppendUS is the median time of one write-ahead journal append
// (Begin, End and Done alternate, as they do in a campaign).
func journalAppendUS(dir string, n int) (float64, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	j, err := store.OpenJournal(dir)
	if err != nil {
		return 0, err
	}
	samples := make([]float64, 0, 3*n)
	for run := 0; run < n; run++ {
		for _, rec := range []func() error{
			func() error { return j.Begin(run, 1, int64(run), 0) },
			func() error { return j.End(run, 1, "ok", "") },
			func() error { return j.Done(run) },
		} {
			t0 := wallNow()
			err := rec()
			samples = append(samples, us(wallNow().Sub(t0)))
			if err != nil {
				j.Close()
				return 0, err
			}
		}
	}
	if err := j.Close(); err != nil {
		return 0, err
	}
	return median(samples), nil
}

// reldbInsertNS is the cost of one row ingested into the Events schema.
func (e effort) reldbInsertNS() (float64, error) {
	n := e.n(200_000)
	db := reldb.New()
	if err := db.CreateTable(reldb.Schema{Name: "Events", Columns: []reldb.Column{
		{Name: "RunID", Type: reldb.Int64},
		{Name: "NodeID", Type: reldb.Text},
		{Name: "CommonTime", Type: reldb.Time},
		{Name: "EventType", Type: reldb.Text},
		{Name: "Parameter", Type: reldb.Text},
	}}); err != nil {
		return 0, err
	}
	base := time.Unix(0, 0).UTC()
	t0 := wallNow()
	for i := 0; i < n; i++ {
		if err := db.Insert("Events", reldb.Row{
			int64(i % 100), "node", base.Add(time.Duration(i)), "ev", "",
		}); err != nil {
			return 0, err
		}
	}
	return float64(wallNow().Sub(t0).Nanoseconds()) / float64(n), nil
}

// sink keeps the compiler from dropping a driver's measured call.
var sink int

// metricsExtractUS is the cost of extracting R / t_R from one run's
// captured events.
func (e effort) metricsExtractUS(events []eventlog.Event, sm, su []string) float64 {
	n := e.n(20_000)
	t0 := wallNow()
	for i := 0; i < n; i++ {
		sink += metrics.ExtractRun(events, sm, su).Found
	}
	return us(wallNow().Sub(t0)) / float64(n)
}

// xmlrpcRoundtripUS times a trivial registered method over one loopback
// connection: the floor under every control-channel call.
func (e effort) xmlrpcRoundtripUS() (p50, p95 float64, err error) {
	n := e.n(3000)
	srv := xmlrpc.NewServer()
	srv.Register("bench.echo", func(params []any) (any, error) {
		v, _ := params[0].(int)
		return v, nil
	})
	hs, err := serve(srv)
	if err != nil {
		return 0, 0, err
	}
	defer hs.stop()
	c := xmlrpc.NewClient(hs.url)
	samples := make([]float64, 0, n)
	for i := 0; i < n+200; i++ {
		t0 := wallNow()
		if _, err := c.Call("bench.echo", i); err != nil {
			return 0, 0, err
		}
		if i >= 200 { // the first calls open the connection and warm the pools
			samples = append(samples, us(wallNow().Sub(t0)))
		}
	}
	return quantile(samples, 0.5), quantile(samples, 0.95), nil
}

// xmlrpcCodecUS is the cost of carrying one run's harvested events across
// the wire format: the JSON document node.harvest_events returns, encoded
// as an XML-RPC response and decoded again.
func (e effort) xmlrpcCodecUS(events []eventlog.Event) (enc, dec float64, err error) {
	n := e.n(2000)
	doc, err := json.Marshal(events)
	if err != nil {
		return 0, 0, err
	}
	var wire []byte
	t0 := wallNow()
	for i := 0; i < n; i++ {
		if wire, err = xmlrpc.EncodeResponse(string(doc)); err != nil {
			return 0, 0, err
		}
	}
	t1 := wallNow()
	for i := 0; i < n; i++ {
		if _, err = xmlrpc.DecodeResponse(wire); err != nil {
			return 0, 0, err
		}
	}
	t2 := wallNow()
	return us(t1.Sub(t0)) / float64(n), us(t2.Sub(t1)) / float64(n), nil
}

// peakRSSMB reads the process's high-water resident set from
// /proc/self/status; 0 where that file does not exist.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	var kb float64
	for _, line := range strings.Split(string(b), "\n") {
		if n, _ := fmt.Sscanf(line, "VmHWM: %f kB", &kb); n == 1 {
			return kb / 1024
		}
	}
	return 0
}

// diskDir is where the *_disk store drivers write: a directory of the
// output directory, which unlike the scratch directory is on a real disk.
func diskDir(outDir, name string) string {
	return filepath.Join(outDir, fmt.Sprintf("disk-%d-%s", os.Getpid(), name))
}
