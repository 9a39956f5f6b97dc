//go:build bceinvariants

package sched

import (
	"math"
	"strings"
	"testing"

	"bce/internal/job"
)

// TestEnforceTripsUnvalidatedUsageInvariant hands Enforce a task whose
// working set never went through job.Usage.Validate. The fallback's
// fit filter is only exact for finite, non-negative usage, so the
// bceinvariants build must refuse the queue instead of scheduling it.
func TestEnforceTripsUnvalidatedUsageInvariant(t *testing.T) {
	bad := cpuTask(0, "bad")
	bad.Usage.MemBytes = math.NaN()
	defer func() {
		msg, ok := recover().(string)
		if !ok || !strings.Contains(msg, "bce: invariant violated") || !strings.Contains(msg, "unvalidated usage") {
			t.Fatalf("unexpected panic payload %q", msg)
		}
	}()
	var e Enforcer
	e.Enforce(Input{
		Policy: JSLocal, Hardware: hwCPU(2), Tasks: []*job.Task{cpuTask(0, "ok"), bad},
		Endangered: noEndangered, Prio: flatPrio, GPUAllowed: true,
	})
}
