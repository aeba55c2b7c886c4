"""EdgeLinker: permissioned PoA ledger, secure device channel, and benchmark simulator."""
