"""dratcheck: forward DRAT proof checking and plain/binary proof conversion."""
