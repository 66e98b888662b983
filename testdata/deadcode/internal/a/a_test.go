package a

import "testing"

// Uses from a test do not count.
func TestHelpers(t *testing.T) {
	l := &Live{opt: Options{DeadOption: testOnlyHelper()}}
	l.DeadMethod()
}
