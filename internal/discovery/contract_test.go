package discovery_test

import (
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"excovery/internal/discovery"
	"excovery/internal/eventlog"
	"excovery/internal/noderpc"
	"excovery/internal/sched"
	"excovery/internal/xmlrpc"
)

// contract is every XML-RPC method the node host, the master's event
// endpoint and the registry serve, each with the tests that drive it over
// the wire through its callers: one of them fails when a caller names the
// method wrongly or leaves out a parameter the handler requires. Tests are
// named as "<directory from the module root> <test function>...". A method
// served without an entry here, or an entry whose test is gone, fails
// TestEveryServedMethodIsDriven.
var contract = []struct{ method, tests string }{
	{"env.execute", "internal/noderpc TestActionParamsNamedLikeCallMetadata"},
	{"env.reset", "internal/noderpc TestFailedEnvResetRetriesRun"},
	{"host.harvest_trace", "internal/noderpc TestTracePropagationAndFanIn"},
	{"host.nodes", "cmd/excovery-master TestStaticWiringRunsTheCampaign"},
	{"host.obs_snapshot", "internal/noderpc TestTracePropagationAndFanIn"},
	{"host.ping", "cmd/excovery-master TestStaticWiringRunsTheCampaign"},
	{"host.renew_lease", "internal/noderpc TestLeaseLifecycleAndTakeover"},
	{"host.set_master", "cmd/excovery-master TestStaticWiringRunsTheCampaign"},
	{"master.events", "internal/noderpc TestPushedEventsLandInTheirRun"},
	{"node.cleanup_run", "internal/noderpc TestDistributedOneShot"},
	{"node.emit", "internal/noderpc TestDistributedOneShot"},
	{"node.execute", "internal/noderpc TestDistributedOneShot"},
	{"node.harvest_events", "internal/noderpc TestPrintedRMatchesLevel3"},
	{"node.harvest_extras", "internal/noderpc TestRemoteExtrasReachTheStoredRun"},
	{"node.harvest_packets", "internal/noderpc TestDistributedHarvestOwnership"},
	{"node.local_time", "internal/noderpc TestDistributedOneShot"},
	{"node.ping", "internal/noderpc TestDistributedOneShot"},
	{"node.prepare_run", "internal/noderpc TestDistributedOneShot"},
	{"registry.claim", "internal/discovery TestFleetReleasesWhatItDoesNotKeep"},
	{"registry.fleet", "internal/discovery TestEveryServedMethodIsDriven"},
	{"registry.heartbeat", "internal/discovery TestAgentHeartbeatsRenew"},
	{"registry.ping", "internal/discovery TestEveryServedMethodIsDriven"},
	{"registry.register", "internal/discovery TestRegistryPartitionHealRebuild"},
	{"registry.release", "internal/discovery TestFleetReleasesWhatItDoesNotKeep TestFailoverReportsDeadHostAndReleasesFailedSpare"},
	{"registry.report_down", "internal/discovery TestFailoverReportsDeadHostAndReleasesFailedSpare"},
	{"system.listMethods", "internal/discovery TestEveryServedMethodIsDriven"},
}

// TestEveryServedMethodIsDriven starts the three servers over loopback and
// holds the union of the methods they list to the contract table, and
// every test the table names to a test function in its directory. It
// drives the methods only operators call: registry.ping, registry.fleet
// and system.listMethods itself.
func TestEveryServedMethodIsDriven(t *testing.T) {
	host := startFleetHost(t, "", "h-contract", 1)
	ms := sched.New(sched.RealTime, time.Unix(0, 0))
	masterHTTP := httptest.NewServer(noderpc.MasterServer(ms, eventlog.NewBus(ms)))
	defer masterHTTP.Close()
	reg := discovery.NewRegistry()
	reg.Register("h-contract", host.http.URL, []string{"A", "B"}, "", time.Hour, 0)
	regHTTP := httptest.NewServer(reg.Server())
	defer regHTTP.Close()

	served := map[string]bool{}
	for _, url := range []string{host.http.URL, masterHTTP.URL, regHTTP.URL} {
		v, err := xmlrpc.NewClient(url).Call("system.listMethods")
		if err != nil {
			t.Fatal(err)
		}
		methods, _ := v.([]any)
		for _, m := range methods {
			served[m.(string)] = true
		}
	}
	var listed, unserved []string
	for _, c := range contract {
		listed = append(listed, c.method)
		if !served[c.method] {
			unserved = append(unserved, c.method)
		}
		delete(served, c.method)
	}
	if !sort.StringsAreSorted(listed) {
		t.Errorf("contract table out of method order: %v", listed)
	}
	var undriven []string
	for m := range served {
		undriven = append(undriven, m)
	}
	sort.Strings(undriven)
	if len(undriven) > 0 {
		t.Errorf("served without a test in the contract table: %v", undriven)
	}
	if len(unserved) > 0 {
		t.Errorf("in the contract table but served by none of the three servers: %v", unserved)
	}

	for _, c := range contract {
		f := strings.Fields(c.tests)
		for _, name := range f[1:] {
			if !definesTest(t, filepath.Join("..", "..", f[0]), name) {
				t.Errorf("%s: no test %s in %s", c.method, name, f[0])
			}
		}
	}

	rc := xmlrpc.NewClient(regHTTP.URL)
	if v, err := rc.Call("registry.ping"); err != nil || v != "pong" {
		t.Errorf("registry.ping = %v, %v", v, err)
	}
	v, err := rc.Call("registry.fleet")
	if err != nil {
		t.Fatal(err)
	}
	var fleet []discovery.Host
	if s, _ := v.(string); json.Unmarshal([]byte(s), &fleet) != nil ||
		len(fleet) != 1 || fleet[0].ID != "h-contract" || !reflect.DeepEqual(fleet[0].Nodes, []string{"A", "B"}) {
		t.Errorf("registry.fleet = %v, want the one registered host", v)
	}
}

// definesTest reports whether a _test.go file in dir declares the test
// function name.
func definesTest(t *testing.T, dir, name string) bool {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*_test.go"))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		if strings.Contains(string(src), "\nfunc "+name+"(t *testing.T) {") {
			return true
		}
	}
	return false
}
