package rtl

// RefValidate is the reference Validate, for the external fuzz test.
func RefValidate(c *Core) error { return refValidate(c) }

// DecodeUnvalidated decodes a core script into the core Build would
// validate, without validating it; nil when Build fails before
// validation (a malformed endpoint or a mux with under two inputs).
func DecodeUnvalidated(script string) *Core { return unvalidated(DecodeScript(script)) }
