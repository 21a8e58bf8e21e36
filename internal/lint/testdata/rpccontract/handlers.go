package xmlrpc

import "errors"

// wrap mimics the host's dataPath/fenced/traced wrappers: the analyzer
// must look through it to the func literal's profile.
func wrap(method string, fn Handler) MetaHandler {
	return func(_ Meta, params []any) (any, error) { return fn(params) }
}

// pairArgs mimics nodeRunArgs: a delegated []any helper whose required
// indices fold into the calling handler's profile.
func pairArgs(params []any) (string, int, error) {
	id, ok := arg[string](params, 0)
	run, ok2 := arg[int](params, 1)
	if !ok || !ok2 {
		return "", 0, errors.New("want (id, run)")
	}
	return id, run, nil
}

func setup(s *Server) {
	// host.ok: index 0 required, 1 optional (blank ok), 2 optional
	// (if-guarded) -> accepts 1..3 params.
	s.Register("host.ok", func(params []any) (any, error) {
		id, ok := arg[string](params, 0)
		if !ok {
			return nil, errors.New("want id")
		}
		ttl, _ := arg[int](params, 1)
		if flag, ok := arg[int](params, 2); ok && flag > 0 {
			ttl += flag
		}
		return id, nil
	})
	// node.wrapped: profile read through the wrapper and the delegated
	// helper -> exactly 2 params.
	s.RegisterMeta("node.wrapped", wrap("node.wrapped", func(params []any) (any, error) {
		id, run, err := pairArgs(params)
		if err != nil {
			return nil, err
		}
		_ = run
		return id, nil
	}))
	// host.meta: a MetaHandler literal profiles like a Handler, over its
	// second parameter -> accepts 1..2 params.
	s.RegisterMeta("host.meta", func(meta Meta, params []any) (any, error) {
		url, ok := arg[string](params, 0)
		if !ok || meta.FenceEpoch < 0 {
			return nil, errors.New("want url")
		}
		session, _ := arg[string](params, 1)
		return url + session, nil
	})
	// host.none ignores params -> exactly 0.
	s.Register("host.none", func(params []any) (any, error) {
		return "pong", nil
	})
	// host.opaque hands params to another consumer -> arity unknown, only
	// the name is checkable.
	s.Register("host.opaque", func(params []any) (any, error) {
		return len(opaque(params)), nil
	})
}

func opaque(vs []any) []any { return vs }
