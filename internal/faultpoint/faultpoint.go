// Package faultpoint is the fault-injection hook the crash-safety
// harness drives: named points threaded through the service's
// admission, runner and journal paths that can be armed to return an
// injected error, crash the whole process, or add latency.
//
// Points are disarmed by default and cost one atomic load per Hit, so
// production builds carry the hooks at no measurable cost. A test (or
// capxd -faults / the CAPXD_FAULTS environment variable) arms them
// with a spec string:
//
//	point:action[,point:action...]
//	point[@n]:error        Hit returns ErrInjected (on the n-th hit)
//	point[@n]:crash        the process dies immediately (os.Exit 137,
//	                       no deferred cleanup — a SIGKILL stand-in)
//	point[@n]:sleep=50ms   Hit blocks for the duration
//
// The optional @n trigger fires the action on the n-th hit of that
// point only (1-based); without it the action fires on every hit.
// Example: "journal.append@3:crash" kills the process the third time
// the journal appends a record — the kill-and-recover test uses exactly
// this to die with a half-written state machine on disk.
//
// The point-name inventory lives with the call sites; the service's
// points are serve.admit, serve.run, journal.append, journal.sync and
// journal.compact.
package faultpoint

import (
	"errors"
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// ErrInjected is the error an armed error-action point returns.
var ErrInjected = errors.New("faultpoint: injected error")

// action is one armed fault.
type action struct {
	kind  string // "error" | "crash" | "sleep"
	sleep time.Duration
	nth   uint64 // 0 = every hit, else fire on this hit count only
	hits  atomic.Uint64
}

var (
	armed atomic.Bool
	mu    sync.Mutex
	// points maps point name -> armed action.
	points map[string]*action
)

// Configure arms the given fault spec, replacing any previous one. An
// empty spec disarms everything (and is always valid).
func Configure(spec string) error {
	mu.Lock()
	defer mu.Unlock()
	points = make(map[string]*action)
	armed.Store(false)
	if strings.TrimSpace(spec) == "" {
		return nil
	}
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, act, ok := strings.Cut(part, ":")
		if !ok || name == "" {
			return fmt.Errorf("faultpoint: bad spec %q (want point:action)", part)
		}
		a := &action{}
		if base, n, ok := strings.Cut(name, "@"); ok {
			nth, err := strconv.ParseUint(n, 10, 64)
			if err != nil || nth == 0 {
				return fmt.Errorf("faultpoint: bad trigger count in %q", part)
			}
			name, a.nth = base, nth
		}
		switch {
		case act == "error" || act == "crash":
			a.kind = act
		case strings.HasPrefix(act, "sleep="):
			d, err := time.ParseDuration(strings.TrimPrefix(act, "sleep="))
			if err != nil || d < 0 {
				return fmt.Errorf("faultpoint: bad sleep duration in %q", part)
			}
			a.kind, a.sleep = "sleep", d
		default:
			return fmt.Errorf("faultpoint: unknown action %q (want error, crash or sleep=<dur>)", act)
		}
		points[name] = a
	}
	armed.Store(len(points) > 0)
	return nil
}

// Hit fires the named point: a no-op returning nil unless a spec armed
// an action for it. An error action returns ErrInjected; a crash action
// never returns.
func Hit(name string) error {
	if !armed.Load() {
		return nil
	}
	mu.Lock()
	a := points[name]
	mu.Unlock()
	if a == nil {
		return nil
	}
	if n := a.hits.Add(1); a.nth != 0 && n != a.nth {
		return nil
	}
	switch a.kind {
	case "error":
		return fmt.Errorf("%w at %s", ErrInjected, name)
	case "crash":
		// Unclean death on purpose: no deferred cleanup, no journal
		// close, exactly what a SIGKILL or power loss leaves behind.
		fmt.Fprintf(os.Stderr, "faultpoint: crashing at %s\n", name)
		os.Exit(137)
	case "sleep":
		time.Sleep(a.sleep)
	}
	return nil
}
