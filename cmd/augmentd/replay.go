package main

import (
	"errors"
	"fmt"
	"io"

	"repro/internal/serve"
	"repro/internal/serve/loadgen"
)

// errNoService stops a replay whose service newService refused to build (it
// has already said why).
var errNoService = errors.New("no service")

// replay drives a recorded request trace through fresh services at every
// combination of loadgen.Combinations and pins that each reproduces the
// first's placements and the trace's EOF state. Returns the exit code: 2
// when the trace was recorded under other determinism inputs or the options
// are refused, 1 when the trace cannot be read or a replay diverges.
func replay(c *config, stdout, stderr io.Writer) int {
	meta, ops, eof, err := serve.ReadTrace(c.replay)
	if err != nil {
		fmt.Fprintf(stderr, "augmentd: -replay: %v\n", err)
		return 1
	}
	// The trace header pins the recording run's determinism inputs; replaying
	// under different ones cannot reproduce it, so fail fast instead of
	// reporting a confusing divergence.
	mismatch := func(what string, recorded, now any) int {
		fmt.Fprintf(stderr, "augmentd: -replay: trace was recorded with %s %v, not %v\n", what, recorded, now)
		return 2
	}
	switch tenants := serve.NormalizedTenants(c.opt.Tenants); {
	case meta.Seed != c.opt.Seed:
		return mismatch("-seed", meta.Seed, c.opt.Seed)
	case meta.Solver != c.opt.Solver.Name():
		return mismatch("solver", meta.Solver, c.opt.Solver.Name())
	case meta.HopBound != c.opt.HopBound:
		return mismatch("-l", meta.HopBound, c.opt.HopBound)
	case meta.AdmitPolicy != c.opt.AdmitPolicy:
		return mismatch("-admit", meta.AdmitPolicy, c.opt.AdmitPolicy)
	// Quota and fair-queueing decisions are part of the admission sequence a
	// replay must reproduce, so the discipline and tenant set are pinned too.
	// Pre-tenant traces omit both fields; they replay under any setting.
	case meta.Admission != "" && meta.Admission != c.opt.Admission:
		return mismatch("-admission", meta.Admission, c.opt.Admission)
	case meta.Tenants != "" && meta.Tenants != tenants:
		return mismatch("tenants", meta.Tenants, tenants)
	}
	fmt.Fprintf(stdout, "replaying %s: %d ops, recorded", c.replay, len(ops))
	if eof != nil {
		fmt.Fprintf(stdout, " hash=%s placed=%d epoch=%d\n", eof.Hash, eof.Placed, eof.Epoch)
	} else {
		fmt.Fprintln(stdout, " without EOF trailer (recording was cut short; state check skipped)")
	}
	code := 1
	res, err := loadgen.VerifyReplay(ops, eof, c.opt.QueueDepth, func(workers, batchers int) (*serve.Service, error) {
		opt := c.opt
		opt.Workers, opt.Batchers = workers, batchers
		svc, failed := newService(c, stderr, opt)
		if svc == nil {
			code = failed
			return nil, errNoService
		}
		return svc, nil
	})
	switch {
	case errors.Is(err, errNoService):
		return code
	case err != nil:
		fmt.Fprintf(stderr, "augmentd: replay FAILED: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "replay OK: %d combinations reproduced %d placements bit-identically\n", len(loadgen.Combinations), res.Admitted)
	return 0
}
