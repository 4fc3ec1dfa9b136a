package p

const DeadConst = 1

var DeadVar int

type DeadType struct{}

// Method is exported on a dead type, but methods are out of scope: only the
// type is reported.
func (DeadType) Method() {}

func DeadFunc() {}

// Live is named by cmd/app.
func Live() int { return unexported() }

func unexported() int { return 0 }
