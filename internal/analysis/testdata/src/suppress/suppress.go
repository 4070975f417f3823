// Package suppress exercises the //lint:ignore directive: a reasoned
// directive silences its line and the next, a reasonless one is itself
// a finding and silences nothing.
package suppress

import "fmt"

func mixed(n int) {
	//lint:ignore sclint/stray-printing fixture: reasoned directive covers the next line
	fmt.Println("quiet")
	fmt.Printf("loud %d\n", n)  // want stray-printing
	fmt.Println("quiet inline") //lint:ignore sclint/stray-printing fixture: trailing form covers its own line
	//lint:ignore sclint/stray-printing
	fmt.Println("still loud") // want stray-printing (directive above has no reason)
	//lint:ignore sclint/determinism fixture: naming a rule the suite does not have is itself a finding
	n++
}
