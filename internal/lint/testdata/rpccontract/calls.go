package xmlrpc

// Remote mimics noderpc.RemoteNode: call is a forwarder (method string +
// variadic params, handed to Client.CallMeta), so its sites are checked
// like direct Call sites.
type Remote struct{ C *Client }

func (r *Remote) call(method string, params ...any) (any, error) {
	return r.C.CallMeta(method, Meta{TraceParent: 1}, params...)
}

// helper is NOT a forwarder (no Client.Call inside); its string-first
// sites must not be treated as RPC calls.
func helper(name string, params ...any) (any, error) { return nil, nil }

func useCalls(c *Client, r *Remote, m string) {
	c.Call("host.ok", "a")                                 // in range
	c.Call("host.ok", "a", 1, 2)                           // max
	c.Call("host.ok")                                      // want rpccontract
	c.Call("host.ok", "a", 1, 2, 3)                        // want rpccontract
	c.Call("host.gone", "a")                               // want rpccontract
	c.Call("node.wrapped", "n", 7)                         // exact
	c.Call("host.none")                                    // zero params ok
	c.Call("host.opaque", "anything", "goes", 1, 2, 3)     // arity unknown: name check only
	c.CallMeta("host.ok", Meta{FenceEpoch: 9}, "a", 1)     // metadata is no param: 2
	c.CallMeta("host.none", Meta{FenceEpoch: 9})           // metadata is no param: 0
	c.CallMeta("host.ok", Meta{FenceEpoch: 9})             // want rpccontract
	c.CallMeta("host.meta", Meta{FenceEpoch: 9}, "u", "s") // max
	c.Call("host.meta")                                    // want rpccontract
	c.Call(m, "a")                                         // non-literal method: unchecked
	r.call("node.wrapped", "n", 7)                         // forwarder, exact
	r.call("node.wrapped", "n")                            // want rpccontract
	helper("host.gone", "x")                               // not an RPC site
	//lint:ignore rpccontract drift demo: suppressed mismatch stays silent
	c.Call("node.wrapped", "n", 7, 8)
}
