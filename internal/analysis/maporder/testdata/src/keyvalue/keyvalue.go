// Package keyvalue holds the key-and-value loop: each row is built from
// both the key and the value, and the loop is flagged like package a's
// key-only loops.
package keyvalue

import (
	"fmt"
)

// Render formats the metrics map into ordered report rows.
func Render(m map[string]float64) []string {
	var rows []string
	for k, v := range m { // want `range over map m appends to a slice`
		rows = append(rows, fmt.Sprintf("%s=%g", k, v))
	}
	return rows
}
