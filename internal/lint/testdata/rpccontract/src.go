// Fixture for the rpccontract analyzer. Loaded under the import path
// "excovery/internal/xmlrpc", so the mini Server/Client/Meta types here
// carry exactly the qualified names the analyzer keys on; handlers and
// call sites live in one package, exercising registration profiling
// (required vs optional vs wrapped), forwarder calls, metadata calls,
// arity mismatches, unknown methods and suppression.
package xmlrpc

// Handler is the mini handler contract.
type Handler func(params []any) (any, error)

// Meta is the mini call metadata.
type Meta struct {
	TraceParent uint64
	FenceEpoch  int64
}

// MetaHandler is the mini metadata-reading handler contract.
type MetaHandler func(meta Meta, params []any) (any, error)

// Server is the mini registration table.
type Server struct{ methods map[string]MetaHandler }

// Register records a handler.
func (s *Server) Register(name string, h Handler) {
	s.RegisterMeta(name, func(_ Meta, params []any) (any, error) { return h(params) })
}

// RegisterMeta records a metadata-reading handler.
func (s *Server) RegisterMeta(name string, h MetaHandler) { s.methods[name] = h }

// Client is the mini caller.
type Client struct{ URL string }

// Call issues a call.
func (c *Client) Call(method string, params ...any) (any, error) { return nil, nil }

// CallMeta issues a call with metadata.
func (c *Client) CallMeta(method string, meta Meta, params ...any) (any, error) { return nil, nil }

func arg[T any](params []any, i int) (T, bool) {
	var zero T
	if i >= len(params) {
		return zero, false
	}
	v, ok := params[i].(T)
	return v, ok
}
