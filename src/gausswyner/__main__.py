import sys

from .cli import entry_point

if __name__ == "__main__":
    sys.exit(entry_point())
