package p

import "fmt"

// fmt is loaded, so fmt.Stringer's String is an interface method here.
var _ = fmt.Sprint

const DeadConst = 1

var DeadVar int

type DeadType struct{}

// Method is exported on a dead type: the type's finding covers it.
func (DeadType) Method() {}

func DeadFunc() {}

// Live is named by cmd/app.
func Live() int { return unexported() + LiveType{}.Used() }

// LiveType is named by Live; each of its methods stands on its own.
type LiveType struct{}

func (LiveType) Used() int { return 0 }

// DeadMethod is selected by nothing.
func (LiveType) DeadMethod() {}

// TestOnlyMethod is selected by the test alone.
func (LiveType) TestOnlyMethod() {}

// decoy's TestOnlyMethod is selected: the names match, the methods do not.
type decoy struct{}

func (decoy) TestOnlyMethod() {}

func init() { decoy{}.TestOnlyMethod() }

// String is never selected on LiveType, but fmt.Stringer may call it.
func (LiveType) String() string { return "" }

func unexported() int { return 0 }
