package discovery

import (
	"encoding/json"
	"fmt"
	"time"

	"excovery/internal/xmlrpc"
)

// Server builds the registry's XML-RPC method table. The protocol mirrors
// the host lease protocol of internal/noderpc (DESIGN.md §14):
//
//	registry.register(host_id, url, nodes, region, ttl_ms, epoch) -> ttl_ms
//	registry.heartbeat(host_id, ttl_ms)                           -> true
//	registry.claim(master_id, count, region)                      -> JSON []Host
//	registry.release(master_id, host_id)                          -> true
//	registry.report_down(master_id, host_id)                      -> true
//	registry.fleet()                                              -> JSON []Host
//	registry.ping()                                               -> "pong"
//
// Fleet snapshots travel as JSON strings like the harvest RPCs of the
// control channel, keeping the XML-RPC value vocabulary flat.
func (r *Registry) Server() *xmlrpc.Server {
	srv := xmlrpc.NewServer()
	srv.Register("registry.ping", func(params []any) (any, error) {
		return "pong", nil
	})
	srv.Register("registry.register", func(params []any) (any, error) {
		id, ok := xmlrpc.Arg[string](params, 0)
		url, ok2 := xmlrpc.Arg[string](params, 1)
		if !ok || !ok2 || id == "" {
			return nil, fmt.Errorf("registry.register: want (host_id, url, nodes, region, ttl_ms, epoch)")
		}
		var nodes []string
		if raw, ok := xmlrpc.Arg[[]any](params, 2); ok {
			for _, n := range raw {
				if s, ok := n.(string); ok {
					nodes = append(nodes, s)
				}
			}
		}
		region, _ := xmlrpc.Arg[string](params, 3)
		ttlMS, _ := xmlrpc.Arg[int](params, 4)
		epoch, _ := xmlrpc.Arg[int](params, 5)
		if err := r.Register(id, url, nodes, region,
			time.Duration(ttlMS)*time.Millisecond, int64(epoch)); err != nil {
			return nil, err
		}
		return ttlMS, nil
	})
	srv.Register("registry.heartbeat", func(params []any) (any, error) {
		id, ok := xmlrpc.Arg[string](params, 0)
		if !ok {
			return nil, fmt.Errorf("registry.heartbeat: want (host_id, ttl_ms)")
		}
		ttlMS, _ := xmlrpc.Arg[int](params, 1)
		if err := r.Heartbeat(id, time.Duration(ttlMS)*time.Millisecond); err != nil {
			return nil, err
		}
		return true, nil
	})
	srv.Register("registry.claim", func(params []any) (any, error) {
		masterID, ok := xmlrpc.Arg[string](params, 0)
		if !ok || masterID == "" {
			return nil, fmt.Errorf("registry.claim: want (master_id, count, region)")
		}
		want, _ := xmlrpc.Arg[int](params, 1)
		region, _ := xmlrpc.Arg[string](params, 2)
		data, err := json.Marshal(r.Claim(masterID, want, region))
		if err != nil {
			return nil, err
		}
		return string(data), nil
	})
	srv.Register("registry.release", func(params []any) (any, error) {
		masterID, ok := xmlrpc.Arg[string](params, 0)
		hostID, ok2 := xmlrpc.Arg[string](params, 1)
		if !ok || !ok2 {
			return nil, fmt.Errorf("registry.release: want (master_id, host_id)")
		}
		r.Release(masterID, hostID)
		return true, nil
	})
	srv.Register("registry.report_down", func(params []any) (any, error) {
		masterID, ok := xmlrpc.Arg[string](params, 0)
		hostID, ok2 := xmlrpc.Arg[string](params, 1)
		if !ok || !ok2 {
			return nil, fmt.Errorf("registry.report_down: want (master_id, host_id)")
		}
		if err := r.ReportDown(masterID, hostID); err != nil {
			return nil, err
		}
		return true, nil
	})
	srv.Register("registry.fleet", func(params []any) (any, error) {
		data, err := json.Marshal(r.Snapshot())
		if err != nil {
			return nil, err
		}
		return string(data), nil
	})
	return srv
}
