package obs

import (
	"fmt"
	"strings"
)

// Event is one structured trace event: a name plus ordered key=value
// fields. Events render to the engine's historical line format ("name:
// k=v k=v"), so a trace consumer that greps for "ground:" or
// "mode=incremental" keeps working, while programmatic consumers can
// inspect fields by key.
type Field struct {
	Key string
	Val any
}

// F builds one event field. An empty key renders the bare value — used
// for positional fragments like the "v0 -> v1" version arrow in update
// events, which have no natural key in the line format.
func F(key string, val any) Field { return Field{Key: key, Val: val} }

// Event is a named trace event with ordered fields.
type Event struct {
	Name   string
	Fields []Field
}

// E builds an event.
func E(name string, fields ...Field) Event { return Event{Name: name, Fields: fields} }

// String renders the event in the engine's line format: "name: k=v k=v",
// with empty-key fields contributing their bare value.
func (e Event) String() string {
	var b strings.Builder
	b.WriteString(e.Name)
	b.WriteString(":")
	for _, f := range e.Fields {
		b.WriteByte(' ')
		if f.Key != "" {
			b.WriteString(f.Key)
			b.WriteByte('=')
		}
		fmt.Fprint(&b, f.Val)
	}
	return b.String()
}
