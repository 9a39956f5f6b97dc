// Package kernel stands in for the emulation kernel: its //bce:hotpath
// functions must be allocation-free, directly and through everything
// they call in the module. Direct sites are flagged where they occur;
// laundered ones surface at the call site with the witness chain.
package kernel

import (
	"fmt"

	"hotalloc/helper"
)

// debug mimics internal/invariant.Enabled: blocks under a compile-time
// false constant are dead code and must not be scanned.
const debug = false

// Kernel is a reusable scratch simulator in the rrsim mold.
type Kernel struct {
	buf   []float64
	seats []int
	evs   []ev
}

var sink any

// Step is the per-event hot loop: self-appends to retained scratch and
// a frame-local temporary are fine; the laundered allocation inside
// helper.Fold is not.
//
//bce:hotpath
func (k *Kernel) Step(n int) float64 {
	k.buf = k.buf[:0]
	for i := 0; i < n; i++ {
		k.buf = append(k.buf, float64(i)) // self-append: amortized, allowed
	}
	tmp := make([]float64, 8) // frame-local scratch, never escapes: allowed
	var acc float64
	for _, v := range tmp {
		acc += v
	}
	if debug {
		s := fmt.Sprintf("n=%d", n) // dead under const false: not scanned
		_ = s
	}
	acc += helper.Lean(k.buf)
	return acc + helper.Fold(k.buf) // want `hotalloc/helper\.Fold → hotalloc/helper\.tally → hotalloc/helper\.scratch → make\(\[\]float64\) escapes the frame`
}

// Grow returns a fresh slice from the hot path.
//
//bce:hotpath
func Grow(n int) []float64 {
	return make([]float64, n) // want `make\(\[\]float64\) escapes the frame`
}

// Reset stores a fresh slice into the receiver — a heap store.
//
//bce:hotpath
func (k *Kernel) Reset(n int) {
	k.seats = make([]int, n) // want `make\(\[\]int\) escapes the frame`
}

// GrowOK exercises //bce:allocok placement: on the flagged line and on
// the line above it.
//
//bce:hotpath
func (k *Kernel) GrowOK(n int) {
	if cap(k.buf) < n {
		k.buf = make([]float64, n) //bce:allocok amortized grow path, proportional to fleet size
	}
	k.buf = k.buf[:n]
	if cap(k.seats) < n {
		//bce:allocok amortized grow path, proportional to fleet size
		k.seats = make([]int, n)
	}
	k.seats = k.seats[:n]
}

// Justified blesses a laundered allocation at the call site: the
// directive stops the interprocedural report.
//
//bce:hotpath
func Justified(vals []float64) float64 {
	return helper.Fold(vals) //bce:allocok cold startup path, runs once per scenario
}

// Outer calls another hotpath function that allocates: the finding is
// reported once, inside Inner, not at this call edge.
//
//bce:hotpath
func Outer() []float64 {
	return Inner(3)
}

//bce:hotpath
func Inner(n int) []float64 {
	return make([]float64, n) // want `make\(\[\]float64\) escapes the frame`
}

// Drive dispatches through an interface: CHA carries the allocating
// implementation's fact to the dynamic call site.
//
//bce:hotpath
func Drive(a helper.Accum) float64 {
	return a.Add(1) // want `\(hotalloc/helper\.Accum\)\.Add → \(\*hotalloc/helper\.Boxy\)\.Add → append outside the x = append\(x, \.\.\.\) self-append idiom`
}

// Fingerprint converts bytes to string in the hot path.
//
//bce:hotpath
func Fingerprint(b []byte) int {
	s := string(b) // want `conversion string\(b\) allocates and copies`
	return len(s)
}

// Describe calls into fmt.
//
//bce:hotpath
func Describe(x int) string {
	return fmt.Sprintf("x=%d", x) // want `call into fmt\.Sprintf allocates`
}

// Spread makes a variadic call without an existing slice to spread.
//
//bce:hotpath
func Spread(a, b int) int {
	return helper.Variadic(a, b) // want `variadic call constructs a temporary argument slice`
}

// CopyJoin appends to a slice it does not own.
//
//bce:hotpath
func CopyJoin(dst, extra []float64) []float64 {
	out := append(dst, extra...) // want `append outside the x = append\(x, \.\.\.\) self-append idiom`
	return out
}

// Capture closes over a local.
//
//bce:hotpath
func Capture(n int) int {
	total := 0
	add := func(x int) { total += x } // want `closure captures total and allocates`
	add(n)
	return total
}

// BoxAssign boxes a concrete value into an interface-typed variable.
//
//bce:hotpath
func BoxAssign(v int) {
	sink = v // want `assigning int into an interface boxes it`
}

// ev is a value event record.
type ev struct {
	at   float64
	kind int
}

// Push appends a value composite to retained scratch: the struct is
// copied into the backing array, no allocation beyond the amortized
// self-append.
//
//bce:hotpath
func (k *Kernel) Push(at float64) {
	k.evs = append(k.evs, ev{at: at, kind: 1})
	var cur ev
	cur = ev{at: at} // value copy, not an allocation
	_ = cur
}

// NewEv takes the address of a composite, forcing it to the heap.
//
//bce:hotpath
func NewEv(at float64) *ev {
	return &ev{at: at} // want `composite literal .*ev escapes the frame`
}

// Tabulate builds an escaping slice literal.
//
//bce:hotpath
func (k *Kernel) Tabulate() {
	k.buf = []float64{1, 2, 3} // want `composite literal \[\]float64 escapes the frame`
}

// BoxArg boxes a concrete value into an interface parameter.
//
//bce:hotpath
func BoxArg(v float64) {
	sinkIface(v) // want `passing float64 boxes it into an interface`
}

func sinkIface(v any) { _ = v }

// Ledger mimics the accounting interface the client's tick feeds a
// predicate to.
type Ledger interface {
	Update(now float64, eligible func(p int) bool)
}

// Client binds one of its methods as a predicate.
type Client struct {
	acct    Ledger
	eligFn  func(p int) bool
	serving []bool
}

func (c *Client) eligible(p int) bool { return c.serving[p] }

// Tick passes a bound method value: every evaluation of c.eligible
// builds a closure over c that escapes into the callee.
//
//bce:hotpath
func (c *Client) Tick(now float64) {
	c.acct.Update(now, c.eligible) // want `method value c\.eligible escapes the frame and allocates a closure`
}

// TickBound passes the value bound once at construction: no closure
// is built per call. Calling a method directly, or through a local
// method value that never leaves the frame, is allocation-free too.
//
//bce:hotpath
func (c *Client) TickBound(now float64) bool {
	c.acct.Update(now, c.eligFn)
	f := c.eligible
	return f(0) && c.eligible(1)
}

// Bind stores a method value into the receiver: escapes (flagged here
// only because it is annotated; in real code this runs once in New).
//
//bce:hotpath
func (c *Client) Bind() {
	c.eligFn = c.eligible // want `method value c\.eligible escapes the frame`
}

// MethodExpr uses a method expression, a static function value: no
// receiver is captured, so nothing is allocated.
//
//bce:hotpath
func MethodExpr(c *Client) func(*Client, int) bool {
	return (*Client).eligible
}
