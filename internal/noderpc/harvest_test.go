package noderpc

import (
	"bytes"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"

	"excovery/internal/core"
	"excovery/internal/desc"
	"excovery/internal/store"
	"excovery/internal/xmlrpc"
)

// rssiCampaign is a one-shot description whose SU, node B, runs the plugin
// action measure_rssi once per run.
func rssiCampaign(reps int) *desc.Experiment {
	e := desc.OneShot(30)
	e.Repl.Count = reps
	e.NodeProcesses[1].Actions = append(e.NodeProcesses[1].Actions,
		desc.Act("measure_rssi", "samples", "3"))
	return e
}

// rssiHost registers measure_rssi on the host's node B, which records one
// plugin measurement, rssi.txt, per run; and it answers node B's first
// faults calls of node.harvest_extras with a fault in place of the host.
func rssiHost(faults int) func(x *core.Experiment, srv http.Handler) http.Handler {
	return func(x *core.Experiment, srv http.Handler) http.Handler {
		b := x.Managers["B"]
		b.RegisterPlugin("measure_rssi", func(params map[string]string) error {
			b.AddExtra("rssi.txt", []byte("-42dBm x"+params["samples"]))
			return nil
		})
		var mu sync.Mutex
		return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
			body, err := io.ReadAll(req.Body)
			if err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			method, params, _ := xmlrpc.DecodeCall(body)
			mu.Lock()
			fault := faults > 0 && method == "node.harvest_extras" && len(params) > 0 && params[0] == "B"
			if fault {
				faults--
			}
			mu.Unlock()
			if fault {
				w.Header().Set("Content-Type", "text/xml")
				w.Write(xmlrpc.EncodeFault(&xmlrpc.Fault{Code: 1, String: "node.harvest_extras: disk gone"}))
				return
			}
			req.Body = io.NopCloser(bytes.NewReader(body))
			srv.ServeHTTP(w, req)
		})
	}
}

// rssiExtras returns node B's plugin measurements stored for a run.
func rssiExtras(t *testing.T, st *store.RunStore, run int) []string {
	t.Helper()
	extras, err := st.ListExtras(run)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, x := range extras {
		if x.Node == "B" {
			got = append(got, x.Name+": "+string(x.Content))
		}
	}
	return got
}

// TestRemoteExtrasReachTheStoredRun: a plugin measurement recorded on a
// node host comes back by node.harvest_extras and is stored in the run
// that recorded it.
func TestRemoteExtrasReachTheStoredRun(t *testing.T) {
	lb := runLoopback(t, rssiCampaign(2), loopbackCfg{speed: 0.002, store: true, hostSetup: rssiHost(0)})
	for _, rr := range lb.rep.Results {
		if got := rssiExtras(t, lb.st, rr.Run.ID); len(got) != 1 || got[0] != "rssi.txt: -42dBm x3" {
			t.Errorf("run %d: node B's stored extras %q, want its rssi.txt", rr.Run.ID, got)
		}
	}
}

// TestFailedHarvestIsNotCommitted: a run whose harvest call failed lost
// measurements, so it is not committed as done. Node B's
// node.harvest_extras faults at both attempts of the first run: the run is
// retried once, then recorded failed with a partial marker and without its
// done marker. The second run harvests and commits as usual.
func TestFailedHarvestIsNotCommitted(t *testing.T) {
	lb := runLoopback(t, rssiCampaign(2), loopbackCfg{speed: 0.002, store: true,
		hostSetup: rssiHost(2), attempts: 2, failed: 1})
	r1, r2 := lb.rep.Results[0], lb.rep.Results[1]
	if r1.Attempts != 2 || !r1.Partial || r1.Err == nil ||
		!strings.Contains(r1.Err.Error(), "harvest from node B") || r1.NodeErrs["B"] == "" {
		t.Errorf("first run: attempts %d, partial %v, err %v, node errors %v; want 2 attempts, a partial harvest and node B's harvest error",
			r1.Attempts, r1.Partial, r1.Err, r1.NodeErrs)
	}
	if lb.st.RunDone(r1.Run.ID) {
		t.Error("the first run is marked done without node B's extras")
	}
	if info, err := lb.st.ReadRunInfo(r1.Run.ID); err != nil || !info.Partial || info.Attempts != 2 {
		t.Errorf("first run's info %+v, %v; want partial after 2 attempts", info, err)
	}
	if r2.Attempts != 1 || r2.Err != nil || !lb.st.RunDone(r2.Run.ID) {
		t.Errorf("second run: attempts %d, err %v, done %v; want one clean attempt, committed",
			r2.Attempts, r2.Err, lb.st.RunDone(r2.Run.ID))
	}
	if got := rssiExtras(t, lb.st, r2.Run.ID); len(got) != 1 {
		t.Errorf("second run: node B's stored extras %q, want its rssi.txt", got)
	}
}
