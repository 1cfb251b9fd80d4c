"""The one range check behind every size bound of the package."""


def check_range(name: str, value: int, low: int, high: int) -> None:
    """Reject `value` outside low..high, by name, before any work starts."""
    if not low <= value <= high:
        raise ValueError(f"{name}={value} outside {low}..{high}")
