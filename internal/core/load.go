package core

import (
	"encoding/json"
	"encoding/xml"
	"errors"
	"fmt"
)

// ParseError reports a workflow file that could not be decoded, with as
// much position context as the underlying decoder exposes: DAX/XML
// syntax errors carry a 1-based line, JSON syntax and type errors a byte
// offset. A file that decodes fine but is not an M-SPG does NOT produce
// a ParseError — recognition failures keep their own type
// (*mspg.NotMSPGError) so callers can tell the two apart.
type ParseError struct {
	Path   string // the file being read
	Line   int    // 1-based line of the failure, 0 when unknown
	Offset int64  // byte offset of the failure, 0 when unknown
	Err    error  // the decoder's error
}

func (e *ParseError) Error() string {
	switch {
	case e.Line > 0:
		return fmt.Sprintf("core: parsing %s:%d: %v", e.Path, e.Line, e.Err)
	case e.Offset > 0:
		return fmt.Sprintf("core: parsing %s (byte %d): %v", e.Path, e.Offset, e.Err)
	default:
		return fmt.Sprintf("core: parsing %s: %v", e.Path, e.Err)
	}
}

//hanccr:allow deadapi errors.Is and errors.As reach Unwrap through an anonymous interface
func (e *ParseError) Unwrap() error { return e.Err }

// NewParseError wraps a decoder error, pulling line/offset context out
// of the standard library's syntax-error types when present.
func NewParseError(path string, err error) *ParseError {
	pe := &ParseError{Path: path, Err: err}
	var xmlErr *xml.SyntaxError
	var jsonSyn *json.SyntaxError
	var jsonType *json.UnmarshalTypeError
	switch {
	case errors.As(err, &xmlErr):
		pe.Line = xmlErr.Line
	case errors.As(err, &jsonSyn):
		pe.Offset = jsonSyn.Offset
	case errors.As(err, &jsonType):
		pe.Offset = jsonType.Offset
	}
	return pe
}
