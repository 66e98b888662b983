// Package a holds one live and one dead case of every decision the
// dead-code rules make. A name with "Dead", "dead", "Unused",
// "WriteOnly", "Example" or "testOnly" in it must be caught; every other
// declaration must not be.
package a

import (
	"encoding/json"
	"errors"
	"fmt"
	"sync"
)

const liveConst = 1

const deadConst = 2

// DeadFunc is called by nothing.
func DeadFunc() {}

// testOnlyHelper is called by a test only.
func testOnlyHelper() int { return liveConst }

// DeadOnlyReceivers is named by its own method's receiver only.
type DeadOnlyReceivers struct{}

// M is dead with its type.
func (DeadOnlyReceivers) M() {}

// Iface is named by the program, which calls LiveMethod through it and
// never calls DeadMethod.
type Iface interface {
	LiveMethod() int
	DeadMethod()
}

// Options is a configuration struct.
type Options struct {
	LiveOption    int // set by the program
	DeadOption    int // set by a test only
	ExampleOption int // set by an example only
}

// Live is the program's working type.
type Live struct {
	opt Options
	mu  sync.Mutex // set by calling a pointer method on it
	buf [4]byte    // set by slicing it
	n   int        // set by incrementing it
}

// LiveMethod is called through Iface.
func (l *Live) LiveMethod() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	copy(l.buf[:], "abcd")
	l.n++
	return l.n + int(l.buf[0]) + l.opt.LiveOption + l.opt.DeadOption + l.opt.ExampleOption
}

// DeadMethod is in Iface, so it lives while Iface.DeadMethod does.
func (l *Live) DeadMethod() {}

// Read implements io.Reader, which keeps it though nothing calls it.
func (l *Live) Read(p []byte) (int, error) { return 0, nil }

// String implements fmt.Stringer.
func (l *Live) String() string { return "live" }

// Is is the errors.Is protocol.
func (l *Live) Is(target error) bool { return false }

// Error makes *Live an error, so errors.Is reaches Is.
func (l *Live) Error() string { return "live" }

// ExampleMethod is called by an example only.
func (l *Live) ExampleMethod() {}

// Decoded is filled by a JSON decode.
type Decoded struct {
	Field string `json:"field"`
}

// Report is printed whole: fmt reads its fields by reflection.
type Report struct {
	Printed int
}

// Result is what Run computes.
type Result struct {
	Selected  int // read by a selection
	WriteOnly int // assigned, never read
}

// Run is the program.
func Run() error {
	l := &Live{opt: Options{LiveOption: 1}}
	var i Iface = l
	var d Decoded
	if err := json.Unmarshal([]byte(`{"field":"x"}`), &d); err != nil {
		return err
	}
	r := Result{Selected: len(d.Field)}
	r.WriteOnly = i.LiveMethod()
	fmt.Println(Report{Printed: r.Selected}, errors.Is(l, l))
	return nil
}
