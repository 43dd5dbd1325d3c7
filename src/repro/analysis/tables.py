"""Plain-text table rendering for experiment reports.

The benchmarks regenerate the paper's tables as monospace text; this
module keeps the formatting in one place so every artefact renders
consistently.
"""


def format_pct(fraction, digits=1):
    """``0.123`` -> ``"12.3%"``."""
    return "%.*f%%" % (digits, fraction * 100.0)


class TextTable:
    """Accumulates rows, then renders with aligned columns."""

    def __init__(self, headers, title=""):
        self.title = title
        self.headers = list(headers)
        self.rows = []

    def add_row(self, *cells):
        if len(cells) != len(self.headers):
            raise ValueError(
                "row has %d cells, table has %d columns"
                % (len(cells), len(self.headers))
            )
        self.rows.append([str(c) for c in cells])

    def render(self):
        widths = [len(h) for h in self.headers]
        for row in self.rows:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(cell))
        lines = []
        if self.title:
            lines.append(self.title)
        sep = "-+-".join("-" * w for w in widths)
        lines.append(" | ".join(h.ljust(w) for h, w in zip(self.headers, widths)))
        lines.append(sep)
        for row in self.rows:
            lines.append(" | ".join(c.rjust(w) for c, w in zip(row, widths)))
        return "\n".join(lines)

    def __str__(self):
        return self.render()
