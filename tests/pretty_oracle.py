"""Oracle for `IntPolynomial.pretty`: the formatter as it was before the
variable names were built once per call, one f-string per factor."""


def pretty_oracle(poly):
    """Human-readable form like '2*t1^2*t2 - t3 + 1'."""
    if not poly.terms:
        return "0"
    pieces = []
    for exp, coef in sorted(poly.terms.items()):
        factors = [f"t{i + 1}" + (f"^{e}" if e > 1 else "") for i, e in enumerate(exp) if e > 0]
        mono = "*".join(factors)
        mag = abs(coef)
        if not mono:
            body = str(mag)
        elif mag == 1:
            body = mono
        else:
            body = f"{mag}*{mono}"
        sign = "-" if coef < 0 else "+"
        pieces.append(f"{sign} {body}")
    text = " ".join(pieces)
    return text[2:] if text.startswith("+ ") else "-" + text[2:]
