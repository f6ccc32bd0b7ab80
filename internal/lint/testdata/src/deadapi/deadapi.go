// Fixture for the deadapi checker (scope forced on by the harness,
// standing in for an internal/ package). Only this file is loaded, so
// a reference counts only when this file makes it.
package deadapifix

import "fmt"

// Unused has no caller anywhere.
func Unused() int { return 1 } // want "Unused has no non-test reference"

// Helper is called by its sibling Entry, so it is live.
func Helper() int { return 2 }

// Entry is the fixture's one root; its use is below.
func Entry() int { return Helper() }

var _ = Entry

// Recursive calls only itself, which keeps nothing alive.
func Recursive(n int) int { // want "Recursive has no non-test reference"
	if n == 0 {
		return 0
	}
	return Recursive(n - 1)
}

// Shape is an interface declared in the fixture.
type Shape interface{ Area() float64 }

// Square satisfies Shape, so Area is exempt; Side is not.
type Square struct{ side float64 }

func (s Square) Area() float64 { return s.side * s.side }

func (s Square) Side() float64 { return s.side } // want "Square.Side has no non-test reference"

// Code satisfies fmt.Stringer and the universe error.
type Code int

func (c Code) String() string { return fmt.Sprint(int(c)) }

func (c Code) Error() string { return fmt.Sprintf("code %d", int(c)) }

// Wrapped satisfies only the anonymous interface errors.Unwrap
// looks for, so its Unwrap needs a suppression.
type Wrapped struct{ err error }

func (w *Wrapped) Error() string { return w.err.Error() }

//hanccr:allow deadapi errors.Is and errors.As reach Unwrap through an anonymous interface
func (w *Wrapped) Unwrap() error { return w.err }

// Apply is generic; its one use instantiates it, and a use of an
// instantiation counts for the generic declaration.
func Apply[T any](x T, f func(T) T) T { return f(x) }

// Box is generic; Get's one use is through Box[int], Set has none.
type Box[T any] struct{ v T }

func (b Box[T]) Get() T { return b.v }

func (b Box[T]) Set(v T) Box[T] { return Box[T]{v: v} } // want "Box.Set has no non-test reference"

var _ = Apply(Box[int]{v: 1}.Get(), func(n int) int { return n + 1 })
