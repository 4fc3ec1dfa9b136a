package p

import "testing"

// A test's reference does not make a name live.
func TestDead(t *testing.T) {
	DeadFunc()
	_ = DeadType{}
	_ = DeadVar + DeadConst
	LiveType{}.TestOnlyMethod()
}
